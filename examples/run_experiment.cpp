// Run a custom experiment grid through the instance-parallel
// ExperimentRunner: pick datasets and an explainer line-up, spread the
// explained instances over the scoring pool, and emit the result as an
// aligned table plus (optionally) the self-describing JSON document.
//
// The aggregates are bit-identical for any --threads value: instances
// carry their own seeds and the reduction runs in index order, so the
// thread count only changes the wall clock.
//
//   ./examples/run_experiment [--datasets products-structured,biblio-structured]
//       [--instances 8] [--samples 64] [--seed 7] [--threads 4] [--json f]
//       plus the other run-control flags of crew/eval/run_control.h
//
// The streaming flags demonstrate the crash-safe execution layer: --resume
// names a per-cell checkpoint that lets a restarted run skip finished
// cells (bit-identically — per-cell seeds derive from the grid key, not
// execution order), --stream appends each finished cell to a JSONL shard,
// and --fail-after-cells injects a deterministic fault for testing the
// resume path. See DESIGN.md "Streaming & resume".

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "crew/common/flags.h"
#include "crew/common/string_util.h"
#include "crew/data/benchmark_suite.h"
#include "crew/eval/run_control.h"
#include "crew/eval/runner.h"
#include "crew/model/trainer.h"

int main(int argc, char** argv) {
  std::string datasets = "products-structured,biblio-structured";
  int instances = 8;
  int samples = 64;
  uint64_t seed = 7;
  crew::RunControl run;
  run.threads = 4;
  crew::FlagParser flags;
  flags.Add("datasets", &datasets, "comma-separated benchmark datasets");
  flags.Add("instances", &instances, "explained pairs per dataset");
  flags.Add("samples", &samples, "perturbation samples per explanation");
  flags.Add("seed", &seed, "base seed of data, training and explanation");
  run.Declare(flags);
  flags.ParseOrExit(argc, argv);
  run.Apply();

  // 1. Declare the grid: datasets x matcher x explainer suite.
  crew::ExperimentSpec spec;
  spec.name = "example_experiment";
  spec.instances_per_dataset = instances;
  spec.seed = seed;
  const std::vector<crew::BenchmarkEntry> all =
      crew::StandardBenchmark(seed, /*matches_per_dataset=*/120,
                              /*nonmatches_per_dataset=*/160);
  for (const std::string& name : crew::Split(datasets, ',')) {
    const auto entry = std::find_if(
        all.begin(), all.end(),
        [&name](const crew::BenchmarkEntry& e) { return e.name == name; });
    if (entry == all.end()) {
      std::fprintf(stderr, "unknown dataset: %s\n", name.c_str());
      return 1;
    }
    spec.datasets.push_back(*entry);
  }
  spec.suite = [samples](const crew::TrainedPipeline& pipeline) {
    crew::ExplainerSuiteConfig config;
    config.num_samples = samples;
    return crew::NameSuite(crew::BuildExplainerSuite(
        pipeline.embeddings, pipeline.train, config));
  };

  // A failed run still writes --trace, with the spans up to the failure.
  auto fail = [&run](const crew::Status& status) {
    if (auto written = crew::WriteTrace(run); !written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
    }
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  };

  // 2. Assemble the streaming hooks the run-control flags ask for: a
  //    checkpoint store for --resume, a JSONL shard for --stream, a live
  //    partial table, and the fault injector (--fail-after-cells, or the
  //    CREW_FAULT_SEED / CREW_FAULT_HARD environment knobs).
  auto setup = crew::MakeStreamSetup(run);
  if (!setup.ok()) return fail(setup.status());

  // 3. Execute: each pool worker claims instances one at a time;
  //    perturbation scoring nested inside an instance runs inline (one
  //    pool, two levels).
  crew::ExperimentRunner runner(std::move(spec));
  auto result = runner.Run(setup->hooks);
  if (!result.ok()) return fail(result.status());

  // 4. Emit: console table (plus the --metrics block), then --json and
  //    --trace if asked.
  result.value().include_metrics = run.metrics;
  crew::PrintResultTable(
      result.value(),
      {crew::AggColumn("aopc", &crew::ExplainerAggregate::aopc),
       crew::AggColumn("compr@3",
                       &crew::ExplainerAggregate::comprehensiveness_at_3),
       crew::AggColumn("units", &crew::ExplainerAggregate::total_units, 1),
       crew::AggColumn("ms/expl", &crew::ExplainerAggregate::runtime_ms, 2)});
  if (auto status = crew::WriteJsonAndTrace(result.value(), run);
      !status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  return 0;
}
