// T6 — Stability: mean pairwise Jaccard of the top-10 attributed words
// across 4 sampling seeds. Perturbation explainers are stochastic; an
// explanation a user cannot reproduce is not trustworthy.

#include <algorithm>
#include <cstdio>

#include "bench_util.h"

int main(int argc, char** argv) {
  const auto options = crew::bench::BenchOptions::Parse(argc, argv);
  const std::vector<uint64_t> seeds = {11, 22, 33, 44};
  const int top_k = 10;
  std::printf(
      "== T6: stability (Jaccard@%d of top words, %d seeds) ==\n"
      "matcher=%s samples=%d instances/dataset=%d\n\n",
      top_k, static_cast<int>(seeds.size()), options.matcher.c_str(),
      options.samples, options.instances);

  auto spec = crew::bench::SpecFromOptions("t6_stability", options);
  // Stability re-explains each instance once per seed, so keep the
  // historical cap of 4 measured instances per dataset.
  spec.instances_per_dataset = std::min(4, options.instances);
  spec.eval.stability_seeds = seeds;
  spec.eval.stability_top_k = top_k;
  crew::ExperimentRunner runner(std::move(spec));
  auto setup = crew::bench::ValueOrDie(crew::MakeStreamSetup(options.run),
                                        options.run);
  auto result = runner.Run(setup.hooks);
  crew::bench::DieIfError(result.status(), options.run);

  crew::bench::EmitExperiment(
      *result, options,
      {crew::AggColumn("jaccard@10", &crew::ExplainerAggregate::stability)});
  return 0;
}
