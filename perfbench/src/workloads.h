// The benchmark's workloads. Each generates its inputs from kCorpusSeed and
// the workload seed only, and returns its metrics plus the outcome of its
// correctness checks.
//
//  paper-grid        the paper's T3 grid (9 datasets x 10 explainers, mlp
//                    matcher) through ExperimentRunner::Run on the thread
//                    pool: batch throughput, dominated by model prediction.
//  crew-interactive  one client explaining single test pairs with
//                    CrewExplainer::ExplainClusters (embedding-bag matcher,
//                    1 thread): per-request latency of CREW's own stages.
//  grid-resume       the T3 grid (embedding-bag matcher, 1 thread) resumed
//                    from a checkpoint holding 60 of 90 cells plus a torn
//                    line, streaming fresh cells to an fsync'd shard:
//                    prepare and the checkpoint/stream path.

#ifndef CREW_PERFBENCH_SRC_WORKLOADS_H_
#define CREW_PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "crew/model/trainer.h"
#include "report.h"

namespace perfbench {

/// Seed of the generated corpus every workload runs on: the repository's
/// standard benchmark datasets (bench_* default seed), fixed like the
/// paper's public datasets. The workload seed drives everything else: the
/// train/test split, training, the explained instances and the explainers'
/// sampling (grids), or the request stream (crew-interactive).
inline constexpr std::uint64_t kCorpusSeed = 7;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Shrinks every workload to a few seconds for the structural self-test;
  /// never used for measurements.
  bool tiny = false;
  /// Directory (inside the checkout) for fixtures, shards and span dumps.
  std::string out_dir;
};

/// Where a traced run of `options` writes its spans.
inline std::string SpansPath(const Options& options) {
  return options.out_dir + "/spans-" + options.workload + "-" +
         std::to_string(options.seed) + ".jsonl";
}

/// Thread count of the multi-threaded workload: 4, capped at nproc.
int GridThreads();

/// crew::TrainPipeline unrolled into its calls (split, corpus, SGNS,
/// matcher training, matcher evaluation), each under a span.
crew::Result<crew::TrainedPipeline> TracedTrainPipeline(
    const crew::Dataset& dataset, crew::MatcherKind kind,
    double train_fraction, std::uint64_t seed);

Outcome RunPaperGrid(const Options& options);
Outcome RunGridResume(const Options& options);
Outcome RunCrewInteractive(const Options& options);

}  // namespace perfbench

#endif  // CREW_PERFBENCH_SRC_WORKLOADS_H_
