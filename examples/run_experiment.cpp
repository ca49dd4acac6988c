// Run a custom experiment grid through the instance-parallel
// ExperimentRunner: pick datasets and an explainer line-up, shard the
// explained instances across the scoring pool, and emit the result as an
// aligned table plus (optionally) the self-describing JSON document.
//
// The aggregates are bit-identical for any --threads value: instances
// carry their own seeds and the reduction runs in index order, so the
// thread count only changes the wall clock.
//
//   ./examples/run_experiment [--datasets products-structured,biblio-structured]
//                             [--instances 8] [--samples 64] [--threads 4]
//                             [--json result.json] [--seed 7]
//                             [--trace trace.json] [--metrics]
//                             [--progress 1.0]
//                             [--resume ckpt.jsonl] [--stream cells.jsonl]
//                             [--fail-after-cells N] [--stable-timing]
//                             [--live-table]
//
// The streaming flags demonstrate the crash-safe execution layer: --resume
// names a per-cell checkpoint that lets a restarted run skip finished
// cells (bit-identically — per-cell seeds derive from the grid key, not
// execution order), --stream appends each finished cell to a JSONL shard,
// and --fail-after-cells injects a deterministic fault for testing the
// resume path. See DESIGN.md "Streaming & resume".

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "crew/common/flags.h"
#include "crew/common/thread_pool.h"
#include "crew/common/trace.h"
#include "crew/data/benchmark_suite.h"
#include "crew/eval/runner.h"
#include "crew/eval/sinks.h"
#include "crew/eval/streaming.h"
#include "crew/explain/lime.h"
#include "crew/model/trainer.h"

int main(int argc, char** argv) {
  crew::FlagParser flags(argc, argv);
  if (!flags.status().ok()) {
    std::fprintf(stderr, "%s\n", flags.status().ToString().c_str());
    return 1;
  }
  const std::string datasets =
      flags.GetString("datasets", "products-structured,biblio-structured");
  const int instances = static_cast<int>(flags.GetUint64("instances", 8));
  const int samples = static_cast<int>(flags.GetUint64("samples", 64));
  const int threads = static_cast<int>(flags.GetUint64("threads", 4));
  const std::string json = flags.GetString("json", "");
  const uint64_t seed = flags.GetUint64("seed", 7);
  const std::string trace = flags.GetString("trace", "");
  const bool metrics = flags.GetBool("metrics", false);
  const double progress = flags.GetDouble("progress", 1.0);
  const std::string resume = flags.GetString("resume", "");
  const std::string stream = flags.GetString("stream", "");
  const int fail_after_cells =
      static_cast<int>(flags.GetInt("fail-after-cells", -1));
  const bool stable_timing = flags.GetBool("stable-timing", false);
  const bool live_table = flags.GetBool("live-table", false);
  crew::SetScoringThreads(threads);
  crew::SetProgressInterval(progress);
  crew::SetTracingEnabled(!trace.empty());
  crew::SetStableTiming(stable_timing);

  // 1. Declare the grid: datasets x matcher x explainer suite.
  crew::ExperimentSpec spec;
  spec.name = "example_experiment";
  spec.instances_per_dataset = instances;
  spec.seed = seed;
  const std::vector<crew::BenchmarkEntry> all =
      crew::StandardBenchmark(seed, /*matches_per_dataset=*/120,
                              /*nonmatches_per_dataset=*/160);
  std::string rest = datasets;
  while (!rest.empty()) {
    const size_t comma = rest.find(',');
    const std::string name = rest.substr(0, comma);
    rest = comma == std::string::npos ? "" : rest.substr(comma + 1);
    bool found = false;
    for (const crew::BenchmarkEntry& entry : all) {
      if (entry.name == name) {
        spec.datasets.push_back(entry);
        found = true;
        break;
      }
    }
    if (!found) {
      std::fprintf(stderr, "unknown dataset: %s\n", name.c_str());
      return 1;
    }
  }
  spec.suite = [samples](const crew::TrainedPipeline& pipeline) {
    crew::ExplainerSuiteConfig config;
    config.num_samples = samples;
    return crew::NameSuite(crew::BuildExplainerSuite(
        pipeline.embeddings, pipeline.train, config));
  };

  // 2. Assemble the streaming hooks: a checkpoint store for --resume, a
  //    JSONL shard for --stream, a live partial table, and the fault
  //    injector (--fail-after-cells, or the CREW_FAULT_SEED /
  //    CREW_FAULT_HARD environment knobs).
  crew::RunHooks hooks;
  std::unique_ptr<crew::CheckpointStore> checkpoint;
  if (!resume.empty()) {
    checkpoint = std::make_unique<crew::CheckpointStore>(resume);
    if (auto status = checkpoint->Load(); !status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    if (checkpoint->done_cells() > 0) {
      std::fprintf(stderr, "[resume] %s: %d cell(s) restored\n",
                   resume.c_str(), checkpoint->done_cells());
    }
    hooks.checkpoint = checkpoint.get();
  }
  std::unique_ptr<crew::JsonlStreamSink> shard;
  if (!stream.empty()) {
    shard = std::make_unique<crew::JsonlStreamSink>(stream);
    hooks.sinks.push_back(shard.get());
  }
  std::unique_ptr<crew::PartialTableSink> live;
  if (live_table) {
    live = std::make_unique<crew::PartialTableSink>();
    hooks.sinks.push_back(live.get());
  }
  std::unique_ptr<crew::FaultInjector> fault =
      crew::FaultInjector::FromFlagsAndEnv(fail_after_cells);
  if (fault != nullptr) hooks.fault = fault.get();

  // 3. Execute: instances shard across the scoring pool; perturbation
  //    scoring nested inside a shard runs inline (one pool, two levels).
  crew::ExperimentRunner runner(std::move(spec));
  auto result = runner.Run(hooks);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }

  // 4. Emit: console table (plus the --metrics block), then JSON if asked.
  result.value().include_metrics = metrics;
  crew::PrintResultTable(
      result.value(),
      {crew::AggColumn("aopc", &crew::ExplainerAggregate::aopc),
       crew::AggColumn("compr@3",
                       &crew::ExplainerAggregate::comprehensiveness_at_3),
       crew::AggColumn("units", &crew::ExplainerAggregate::total_units, 1),
       crew::AggColumn("ms/expl", &crew::ExplainerAggregate::runtime_ms, 2)});
  if (!json.empty()) {
    if (auto status = crew::WriteExperimentJson(result.value(), json);
        !status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s\n", json.c_str());
  }
  if (!trace.empty()) {
    if (auto status = crew::WriteChromeTrace(trace); !status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf("wrote %s (load in chrome://tracing or ui.perfetto.dev)\n",
                trace.c_str());
  }
  return 0;
}
