#ifndef CREW_EVAL_RUN_CONTROL_H_
#define CREW_EVAL_RUN_CONTROL_H_

#include <memory>
#include <string>

#include "crew/common/flags.h"
#include "crew/common/status.h"
#include "crew/eval/experiment.h"
#include "crew/eval/runner.h"
#include "crew/eval/sinks.h"
#include "crew/eval/streaming.h"

namespace crew {

/// The run-control flags every bench and example shares: how a binary
/// runs and reports an experiment, not what it computes. A binary changes
/// a default by assigning the field before Declare.
struct RunControl {
  int threads = 0;        ///< scoring threads; 0 = hardware, 1 = serial
  std::string json;       ///< non-empty: also write the ExperimentResult here
  std::string trace;      ///< non-empty: record spans, write Chrome trace here
  bool metrics = false;   ///< emit the per-cell metrics-registry breakdown
  double progress = 1.0;  ///< seconds between progress heartbeats; <=0 = off
  std::string resume;     ///< non-empty: checkpoint path; skip done cells
  std::string stream;     ///< non-empty: stream per-cell JSONL shard here
  int fail_after_cells = -1;   ///< >= 0: inject a deterministic fault
  bool stable_timing = false;  ///< zero wall-derived outputs (byte-stable)
  bool live_table = false;     ///< re-render a partial table per cell

  /// Declares one flag per field on `flags`, bound to that field.
  void Declare(FlagParser& flags);

  /// Pushes threads, progress, tracing and stable timing into their
  /// process-wide settings; call after parsing, before any work.
  void Apply() const;
};

/// Owns what --resume, --stream, --live-table and --fail-after-cells (or
/// CREW_FAULT_SEED) ask for, as the RunHooks ExperimentRunner consumes. The
/// hooks point into this struct's objects; keep it alive for the run.
struct StreamSetup {
  std::unique_ptr<CheckpointStore> checkpoint;
  std::unique_ptr<JsonlStreamSink> stream;
  std::unique_ptr<PartialTableSink> live;
  std::unique_ptr<FaultInjector> fault;
  RunHooks hooks;
};

/// Fails when the checkpoint cannot be loaded; reports restored cells on
/// stderr.
Result<StreamSetup> MakeStreamSetup(const RunControl& run,
                                    std::string scope = std::string());

/// The --json / --trace legs of every emit path, announced on stdout. Call
/// after the tables so the trace covers the full experiment.
Status WriteJsonAndTrace(const ExperimentResult& result,
                         const RunControl& run);

/// The --trace leg alone (a no-op without --trace). A failed run calls it
/// before exiting, so the spans up to the failure can be inspected.
Status WriteTrace(const RunControl& run);

}  // namespace crew

#endif  // CREW_EVAL_RUN_CONTROL_H_
