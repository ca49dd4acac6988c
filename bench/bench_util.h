#ifndef CREW_BENCH_BENCH_UTIL_H_
#define CREW_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "crew/common/flags.h"
#include "crew/common/thread_pool.h"
#include "crew/common/trace.h"
#include "crew/data/benchmark_suite.h"
#include "crew/eval/experiment.h"
#include "crew/eval/runner.h"
#include "crew/eval/sinks.h"
#include "crew/eval/streaming.h"
#include "crew/eval/table.h"
#include "crew/model/trainer.h"

namespace crew::bench {

/// Shared experiment knobs parsed from the command line; every bench binary
/// accepts the same flags so sweeps are scriptable.
struct BenchOptions {
  int matches = 250;
  int nonmatches = 350;
  int instances = 12;    ///< explained pairs per dataset
  int samples = 96;      ///< perturbation samples per explanation
  uint64_t seed = 7;
  std::string matcher = "mlp";
  std::string dataset;   ///< empty = all nine
  int threads = 0;       ///< scoring threads; 0 = hardware, 1 = legacy serial
  std::string json;      ///< non-empty: also write the ExperimentResult here
  std::string trace;     ///< non-empty: record spans, write Chrome trace here
  bool metrics = false;  ///< emit the per-cell metrics-registry breakdown
  double progress = 1.0; ///< seconds between progress heartbeats; <=0 = off
  // Streaming / crash-recovery knobs (see DESIGN.md "Streaming & resume").
  std::string resume;    ///< non-empty: checkpoint path; skip done cells
  std::string stream;    ///< non-empty: stream per-cell JSONL shard here
  int fail_after_cells = -1;  ///< >= 0: inject a deterministic fault
  bool stable_timing = false; ///< zero wall-derived outputs (byte-stable)
  bool live_table = false;    ///< re-render a partial table per cell

  static BenchOptions Parse(int argc, char** argv) {
    FlagParser flags(argc, argv);
    if (!flags.status().ok()) {
      std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
      std::exit(1);
    }
    BenchOptions o;
    o.matches = flags.GetInt("matches", o.matches);
    o.nonmatches = flags.GetInt("nonmatches", o.nonmatches);
    o.instances = flags.GetInt("instances", o.instances);
    o.samples = flags.GetInt("samples", o.samples);
    o.seed = flags.GetUint64("seed", o.seed);
    o.matcher = flags.GetString("matcher", o.matcher);
    o.dataset = flags.GetString("dataset", o.dataset);
    o.threads = flags.GetInt("threads", o.threads);
    o.json = flags.GetString("json", o.json);
    o.trace = flags.GetString("trace", o.trace);
    o.metrics = flags.GetBool("metrics", o.metrics);
    o.progress = flags.GetDouble("progress", o.progress);
    o.resume = flags.GetString("resume", o.resume);
    o.stream = flags.GetString("stream", o.stream);
    o.fail_after_cells =
        flags.GetInt("fail-after-cells", o.fail_after_cells);
    o.stable_timing = flags.GetBool("stable-timing", o.stable_timing);
    o.live_table = flags.GetBool("live-table", o.live_table);
    SetScoringThreads(o.threads);
    SetProgressInterval(o.progress);
    SetTracingEnabled(!o.trace.empty());
    SetStableTiming(o.stable_timing);
    return o;
  }

  MatcherKind MatcherKindOrDie() const {
    for (MatcherKind kind : AllMatcherKinds()) {
      if (matcher == MatcherKindName(kind)) return kind;
    }
    std::fprintf(stderr, "unknown matcher: %s\n", matcher.c_str());
    std::exit(1);
  }

  std::vector<BenchmarkEntry> Datasets() const {
    std::vector<BenchmarkEntry> all =
        StandardBenchmark(seed, matches, nonmatches);
    if (dataset.empty()) return all;
    for (auto& entry : all) {
      if (entry.name == dataset) return {entry};
    }
    std::fprintf(stderr, "unknown dataset: %s\n", dataset.c_str());
    std::exit(1);
  }
};

/// Dies with a message when `status` is not OK (bench binaries have no
/// recovery path).
inline void DieIfError(const Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    std::exit(1);
  }
}

/// Owns the streaming/restart plumbing assembled from the shared flags —
/// checkpoint store (--resume, loaded eagerly), JSONL shard sink
/// (--stream), live partial table (--live-table), and fault injector
/// (--fail-after-cells / CREW_FAULT_SEED / CREW_FAULT_HARD) — and exposes
/// them as the RunHooks view ExperimentRunner consumes. The hooks hold raw
/// pointers into this struct, so keep it alive for the whole run.
struct StreamSetup {
  std::unique_ptr<CheckpointStore> checkpoint;
  std::unique_ptr<JsonlStreamSink> stream;
  std::unique_ptr<PartialTableSink> live;
  std::unique_ptr<FaultInjector> fault;
  RunHooks hooks;
};

inline StreamSetup MakeStreamSetup(const BenchOptions& options,
                                   std::string scope = std::string()) {
  StreamSetup s;
  s.hooks.scope = scope;
  if (!options.resume.empty()) {
    s.checkpoint = std::make_unique<CheckpointStore>(options.resume);
    DieIfError(s.checkpoint->Load());
    s.hooks.checkpoint = s.checkpoint.get();
    if (s.checkpoint->done_cells() > 0) {
      std::fprintf(stderr, "[resume] %s: %d cell(s) restored\n",
                   options.resume.c_str(), s.checkpoint->done_cells());
    }
  }
  if (!options.stream.empty()) {
    s.stream =
        std::make_unique<JsonlStreamSink>(options.stream, std::move(scope));
    s.hooks.sinks.push_back(s.stream.get());
  }
  if (options.live_table) {
    s.live = std::make_unique<PartialTableSink>();
    s.hooks.sinks.push_back(s.live.get());
  }
  s.fault = FaultInjector::FromFlagsAndEnv(options.fail_after_cells);
  if (s.fault != nullptr) s.hooks.fault = s.fault.get();
  return s;
}

/// ExperimentSpec over the shared flags with the standard explainer
/// line-up; benches tweak the returned spec (eval knobs, custom suites)
/// before handing it to ExperimentRunner.
inline ExperimentSpec SpecFromOptions(std::string name,
                                      const BenchOptions& options) {
  ExperimentSpec spec;
  spec.name = std::move(name);
  spec.datasets = options.Datasets();
  spec.matcher = options.MatcherKindOrDie();
  spec.instances_per_dataset = options.instances;
  spec.seed = options.seed;
  spec.suite = [samples = options.samples](const TrainedPipeline& pipeline) {
    ExplainerSuiteConfig config;
    config.num_samples = samples;
    return NameSuite(
        BuildExplainerSuite(pipeline.embeddings, pipeline.train, config));
  };
  return spec;
}

/// One "all" cell per variant, reduced over every dataset's instances:
/// the cross-dataset summary table of the ablation benches.
inline ExperimentResult SummaryAcrossDatasets(const ExperimentResult& result) {
  ExperimentResult summary;
  for (const std::string& name : result.VariantNames()) {
    ExperimentCell cell;
    cell.dataset = "all";
    cell.variant = name;
    cell.aggregate = result.ReduceAcross(name);
    summary.cells.push_back(std::move(cell));
  }
  return summary;
}

/// Writes the Chrome trace when --trace=<file> was given. Runs after the
/// tables so the trace covers the full experiment.
inline void EmitTraceIfRequested(const BenchOptions& options) {
  if (options.trace.empty()) return;
  const size_t events = CollectTraceEvents().size();
  DieIfError(WriteChromeTrace(options.trace));
  std::printf("wrote %s (%zu trace events, %lld overwritten)\n",
              options.trace.c_str(), events,
              static_cast<long long>(TraceDroppedEvents()));
}

/// The --json / --trace legs of every bench's emit path.
inline void WriteJsonAndTrace(const ExperimentResult& result,
                              const BenchOptions& options) {
  if (!options.json.empty()) {
    DieIfError(WriteExperimentJson(result, options.json));
    std::printf("wrote %s\n", options.json.c_str());
  }
  EmitTraceIfRequested(options);
}

/// Standard emit path of every bench: print the cell grid as an aligned
/// table (plus the --metrics block) and honour --json / --trace. Takes the
/// result by mutable reference to stamp include_metrics first.
inline void EmitExperiment(ExperimentResult& result,
                           const BenchOptions& options,
                           const std::vector<TableColumn>& columns,
                           bool dataset_column = true,
                           bool variant_column = true) {
  result.include_metrics = options.metrics;
  PrintResultTable(result, columns, dataset_column, variant_column);
  WriteJsonAndTrace(result, options);
}

/// Emit path for benches that already printed custom tables: the
/// --metrics block and the --json / --trace legs only.
inline void EmitJsonIfRequested(ExperimentResult& result,
                                const BenchOptions& options) {
  result.include_metrics = options.metrics;
  PrintMetricsBlock(result);
  WriteJsonAndTrace(result, options);
}

}  // namespace crew::bench

#endif  // CREW_BENCH_BENCH_UTIL_H_
