#ifndef CREW_EVAL_STREAMING_H_
#define CREW_EVAL_STREAMING_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "crew/eval/runner.h"

namespace crew {

/// Version stamped on every line of the per-cell JSONL stream. Readers
/// refuse any other value (schema evolution must be explicit), with one
/// exception: a corrupted or truncated *trailing* line — the artifact of a
/// crash mid-append — is dropped, not refused (see CheckpointStore::Load).
inline constexpr int kCellSchemaVersion = 1;

/// Key identifying one grid cell across processes and restarts:
/// "[scope|]dataset|variant". `scope` disambiguates repeated grids over
/// the same dataset x variant pairs (bench_f4 tags each sweep point with
/// "samples=N"); it is empty for plain grids.
std::string CellKey(const std::string& scope, const std::string& dataset,
                    const std::string& variant);

/// One line of the stream: the experiment header (name + params, written
/// once) or one complete cell with full per-instance fidelity — enough to
/// reconstruct byte-identical final JSON and to re-reduce the instances
/// (match/non-match splits, cross-dataset summaries, bootstrap tests).
std::string HeaderToJsonl(const ExperimentResult& header);
std::string CellToJsonl(const std::string& scope, const ExperimentCell& cell);

/// Parsed view of one JSONL line. `kind` is "header" or "cell"; header
/// records populate `experiment`/`params`, cell records populate
/// `scope`/`cell`.
struct CellRecord {
  int version = 0;
  std::string kind;
  std::string experiment;
  std::vector<std::pair<std::string, std::string>> params;
  std::string scope;
  ExperimentCell cell;
};

/// Parses one line of the stream. Any malformed JSON, missing or mistyped
/// field (an integer field holding a fraction, a non-finite or an
/// out-of-range value included), or version mismatch is an error; the
/// caller decides whether the line's position (trailing vs interior) makes
/// that recoverable.
Result<CellRecord> ParseCellRecord(const std::string& line);

/// Serializes the result as the compact self-describing --json document:
/// params, and per cell its aggregate (the same field list as the
/// checkpoint line, minus the name), per-instance AOPC samples and
/// deletion curves, scoring counters, registry delta (when
/// include_metrics), extra metrics and notes. It is far smaller than the
/// checkpoint records, which carry every per-instance field.
std::string ExperimentResultToJson(const ExperimentResult& result);

/// Writes ExperimentResultToJson to `path`.
Status WriteExperimentJson(const ExperimentResult& result,
                           const std::string& path);

/// Structured consumer of cells *as they finish*. The grid executor
/// (RunGrid) calls OnBegin once before the first cell, OnCell for every
/// cell in completion order (restored = the cell was read back from a
/// checkpoint rather than computed), and OnEnd with the assembled result.
/// Default implementations make every hook optional except OnCell.
class StreamingSink {
 public:
  virtual ~StreamingSink() = default;
  virtual Status OnBegin(const ExperimentResult& header) {
    (void)header;
    return Status::Ok();
  }
  virtual Status OnCell(const ExperimentCell& cell, bool restored) = 0;
  virtual Status OnEnd(const ExperimentResult& result) {
    (void)result;
    return Status::Ok();
  }
};

/// Streams cells to a JSONL shard: header line on OnBegin (truncating any
/// previous file), then one fsync'd line per cell in completion order. A
/// crash leaves a prefix of complete lines plus at most one torn trailing
/// line — exactly what CheckpointStore::Load recovers from. One shard per
/// process plus tools/merge_cells.py is the cross-process sharding story.
class JsonlStreamSink : public StreamingSink {
 public:
  explicit JsonlStreamSink(std::string path, std::string scope = "");
  ~JsonlStreamSink() override;
  JsonlStreamSink(const JsonlStreamSink&) = delete;
  JsonlStreamSink& operator=(const JsonlStreamSink&) = delete;

  /// Truncates + writes the header on the first call; later calls are
  /// no-ops so multi-invocation experiments (parameter sweeps calling the
  /// runner once per point) keep appending to one shard.
  Status OnBegin(const ExperimentResult& header) override;
  Status OnCell(const ExperimentCell& cell, bool restored) override;

  /// Scope stamped on subsequent cell lines; sweeps set this per point to
  /// keep cell keys unique (mirrors RunHooks::scope).
  void set_scope(std::string scope) { scope_ = std::move(scope); }

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::string scope_;
  std::FILE* file_ = nullptr;
};

/// Durable record of completed cells backed by the same JSONL schema.
/// Load() scans an existing file (tolerating a torn trailing line),
/// Append() adds one fsync'd line per fresh cell, and the runner consults
/// IsDone()/Restored() to skip cells a previous (crashed) run already
/// finished. Because per-cell work is seeded from the grid key and never
/// from execution order, a resumed grid is bit-identical to an
/// uninterrupted one.
class CheckpointStore {
 public:
  explicit CheckpointStore(std::string path);
  ~CheckpointStore();
  CheckpointStore(const CheckpointStore&) = delete;
  CheckpointStore& operator=(const CheckpointStore&) = delete;

  /// Reads the existing file, if any. A missing file is an empty
  /// checkpoint, a torn trailing line is dropped with a warning, and any
  /// interior corruption or schema-version mismatch is an error. The
  /// header's experiment name and params are kept for WriteHeaderIfNew.
  Status Load();

  /// True when Load() saw a complete record for this key (or a fresh cell
  /// was appended under it since).
  bool IsDone(const std::string& key) const;

  /// The restored cell for `key`, or nullptr when not checkpointed.
  const ExperimentCell* Restored(const std::string& key) const;

  /// Appends one completed cell (JSONL line + fsync). Idempotent: a key
  /// that is already done is silently skipped, so replaying a grid over an
  /// existing checkpoint never duplicates lines.
  Status Append(const std::string& scope, const ExperimentCell& cell);

  /// FailedPrecondition when the stored header's experiment name or params
  /// differ from `header`'s — all params except "threads", which cannot
  /// change a result: a checkpoint of another configuration must not fill
  /// this run's table. Ok when the file has no header yet.
  Status CheckHeader(const ExperimentResult& header) const;

  /// Writes the header line if the file has no records yet. Otherwise
  /// refuses what CheckHeader refuses.
  Status WriteHeaderIfNew(const ExperimentResult& header);

  /// Number of completed cells known to the store.
  int done_cells() const { return static_cast<int>(cells_.size()); }

  const std::string& path() const { return path_; }

 private:
  Status EnsureOpenForAppend();

  std::string path_;
  // From the stored header, if any.
  bool has_header_ = false;
  std::string experiment_;
  std::vector<std::pair<std::string, std::string>> params_;
  bool has_records_ = false;
  // Sorted map so every iteration over restored cells is deterministic.
  std::map<std::string, ExperimentCell> cells_;
  std::FILE* file_ = nullptr;
};

/// Deterministic crash-on-demand hook for the runner: once armed, the
/// process "crashes" (a Status error, or a hard _Exit(kFaultExitCode) when
/// CREW_FAULT_HARD is set) after the configured number of *fresh* cells
/// have been completed and durably appended. Arming is explicit
/// (--fail-after-cells N) or derived from the CREW_FAULT_SEED environment
/// variable, which picks a reproducible cell count in [0, grid_size).
class FaultInjector {
 public:
  /// Exit code of a hard (CREW_FAULT_HARD) injected crash.
  static constexpr int kFaultExitCode = 42;

  /// Arms the injector to fire after `cells` fresh cells. Negative
  /// disarms.
  void ArmAfterCells(int cells);

  /// Defers arming until FinalizeSchedule(): the fire point becomes
  /// Rng(seed) uniform in [0, total_cells).
  void ArmFromSeed(uint64_t seed);

  /// Builds an injector from the shared bench knobs: an explicit
  /// --fail-after-cells value wins; otherwise CREW_FAULT_SEED (an unsigned
  /// decimal; anything else, a sign included, is ignored with a warning)
  /// seed-arms it; otherwise returns nullptr (disarmed). Also
  /// reads CREW_FAULT_HARD to select hard process exit over a Status.
  static std::unique_ptr<FaultInjector> FromFlagsAndEnv(int fail_after_cells);

  /// Called once by the executor when the grid size is known; resolves a
  /// seed-armed injector into a concrete fire point.
  void FinalizeSchedule(int total_cells);

  /// True when the next fresh cell must not start (the armed count has
  /// been reached). Under CREW_FAULT_HARD this call does not return.
  bool FireNow();

  /// Records one completed fresh cell.
  void CellCompleted() { ++completed_; }

  /// The error a fired injector reports (stable prefix for tests/CI).
  Status FaultStatus() const;

  bool armed() const { return fail_after_ >= 0 || seed_armed_; }
  int fail_after() const { return fail_after_; }

  void set_hard(bool hard) { hard_ = hard; }

 private:
  int fail_after_ = -1;
  int completed_ = 0;
  bool seed_armed_ = false;
  uint64_t seed_ = 0;
  bool hard_ = false;
};

/// Per-cell sequencing behind the grid executor (RunGrid): checkpoint
/// restore/skip, fan-out to streaming sinks, fsync'd append of fresh
/// cells, and the fault-injection window. Experiments use RunGrid rather
/// than driving this directly. Usage:
///
///   CellStreamer streamer(hooks);
///   CREW_RETURN_IF_ERROR(streamer.Begin(header, total_cells));
///   for each cell:
///     if (auto r = streamer.TryRestore(dataset, variant, &cell); ...)
///       use *restored* cell; else compute it and streamer.Emit(cell);
///   CREW_RETURN_IF_ERROR(streamer.Finish(result));
class CellStreamer {
 public:
  explicit CellStreamer(const RunHooks& hooks) : hooks_(hooks) {}

  /// Writes/validates the checkpoint header and opens every sink.
  Status Begin(const ExperimentResult& header, int total_cells);

  /// When the checkpoint already holds this cell: copies it into `cell`
  /// (with wall-derived fields re-zeroed under stable timing), forwards it
  /// to the sinks as restored, and returns true.
  Result<bool> TryRestore(const std::string& dataset,
                          const std::string& variant, ExperimentCell* cell);

  /// Fault-injection window: call before starting each *fresh* cell's
  /// work. Returns the injected fault once the armed count is reached.
  Status BeforeFreshCell();

  /// Streams one freshly computed cell: checkpoint append (fsync'd), then
  /// every sink, then the fault countdown advances.
  Status Emit(const ExperimentCell& cell);

  /// Closes the stream: OnEnd on every sink.
  Status Finish(const ExperimentResult& result);

 private:
  const RunHooks& hooks_;
};

}  // namespace crew

#endif  // CREW_EVAL_STREAMING_H_
