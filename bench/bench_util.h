#ifndef CREW_BENCH_BENCH_UTIL_H_
#define CREW_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "crew/common/flags.h"
#include "crew/common/thread_pool.h"
#include "crew/data/benchmark_suite.h"
#include "crew/eval/experiment.h"
#include "crew/eval/run_control.h"
#include "crew/eval/runner.h"
#include "crew/eval/sinks.h"
#include "crew/eval/table.h"
#include "crew/model/trainer.h"

namespace crew::bench {

/// Dies with a message when `status` is not OK (bench binaries have no
/// recovery path).
inline void DieIfError(const Status& status) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    std::exit(1);
  }
}

/// DieIfError for a Result; returns its value.
template <typename T>
T ValueOrDie(Result<T> result) {
  DieIfError(result.status());
  return std::move(result).value();
}

/// DieIfError for a step of the run itself: a failed run still writes its
/// --trace, with the spans up to the failure, before it exits.
inline void DieIfError(const Status& status, const RunControl& run) {
  if (!status.ok()) {
    if (Status written = WriteTrace(run); !written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
    }
  }
  DieIfError(status);
}

/// ValueOrDie that writes --trace on failure, as DieIfError(status, run).
template <typename T>
T ValueOrDie(Result<T> result, const RunControl& run) {
  DieIfError(result.status(), run);
  return std::move(result).value();
}

/// Which experiment knobs a bench declares: all of them, or only the data
/// knobs for benches that explain nothing and train every matcher (t1,
/// t2), so that --matcher, --instances and --samples are refused there
/// rather than ignored.
enum class BenchKnobs { kAll, kDataOnly };

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
  RunControl run;

  /// Declares the experiment knobs and the run-control flags on `flags`.
  void Declare(FlagParser& flags, BenchKnobs knobs = BenchKnobs::kAll) {
    const bool all = knobs == BenchKnobs::kAll;
    flags.Add("matches", &matches, "matching pairs per dataset");
    flags.Add("nonmatches", &nonmatches, "non-matching pairs per dataset");
    if (all) {
      flags.Add("instances", &instances, "explained pairs per dataset");
      flags.Add("samples", &samples, "perturbation samples per explanation");
    }
    flags.Add("seed", &seed, "base seed of data, training and explanation");
    if (all) {
      flags.Add("matcher", &matcher,
                "logistic, mlp, embedding_bag, random_forest or rule");
    }
    flags.Add("dataset", &dataset, "one benchmark dataset; empty = all nine");
    run.Declare(flags);
  }

  /// Refuses a --matcher or --dataset value that names nothing.
  Status Validate() const {
    auto kind = MatcherKindFromName(matcher);
    if (!kind.ok()) {
      return Status::InvalidArgument("--matcher: " + kind.status().message());
    }
    if (dataset.empty()) return Status::Ok();
    for (const BenchmarkEntry& entry : StandardBenchmark()) {
      if (entry.name == dataset) return Status::Ok();
    }
    return Status::InvalidArgument("--dataset: unknown benchmark dataset: " +
                                   dataset);
  }

  /// The declared flags of a bench without flags of its own; a usage
  /// error or an unknown name exits 2 before any work.
  static BenchOptions Parse(int argc, char** argv,
                            BenchKnobs knobs = BenchKnobs::kAll) {
    BenchOptions o;
    FlagParser flags;
    o.Declare(flags, knobs);
    flags.ParseOrExit(argc, argv);
    if (Status valid = o.Validate(); !valid.ok()) flags.ExitWithUsage(valid);
    o.run.Apply();
    return o;
  }

  /// The --dataset entry, or all nine; the name was checked by Validate().
  std::vector<BenchmarkEntry> Datasets() const {
    std::vector<BenchmarkEntry> all =
        StandardBenchmark(seed, matches, nonmatches);
    if (dataset.empty()) return all;
    for (auto& entry : all) {
      if (entry.name == dataset) return {entry};
    }
    return {};
  }
};

/// ExperimentSpec over the shared flags with the standard explainer
/// line-up; benches tweak the returned spec (eval knobs, custom suites)
/// before handing it to ExperimentRunner.
inline ExperimentSpec SpecFromOptions(std::string name,
                                      const BenchOptions& options) {
  ExperimentSpec spec;
  spec.name = std::move(name);
  spec.datasets = options.Datasets();
  spec.matcher = ValueOrDie(MatcherKindFromName(options.matcher));
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

/// Standard emit path of every bench: print the cell grid as an aligned
/// table (plus the --metrics block) and honour --json / --trace. Takes the
/// result by mutable reference to stamp include_metrics first.
inline void EmitExperiment(ExperimentResult& result,
                           const BenchOptions& options,
                           const std::vector<TableColumn>& columns,
                           bool dataset_column = true,
                           bool variant_column = true) {
  result.include_metrics = options.run.metrics;
  PrintResultTable(result, columns, dataset_column, variant_column);
  DieIfError(WriteJsonAndTrace(result, options.run));
}

/// Emit path for benches that already printed custom tables: the
/// --metrics block and the --json / --trace legs only.
inline void EmitJsonIfRequested(ExperimentResult& result,
                                const BenchOptions& options) {
  result.include_metrics = options.run.metrics;
  PrintMetricsBlock(result);
  DieIfError(WriteJsonAndTrace(result, options.run));
}

}  // namespace crew::bench

#endif  // CREW_BENCH_BENCH_UTIL_H_
