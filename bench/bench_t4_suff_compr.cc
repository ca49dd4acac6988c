// T4 — Sufficiency / comprehensiveness at unit budgets k in {1, 3}
// (DeYoung et al.'s ERASER protocol applied to EM explainers) plus the
// insertion AOPC (how fast the top units rebuild the decision from an
// empty pair). Comprehensiveness and insertion: higher is better.
// Sufficiency: lower is better.

#include <cstdio>

#include "bench_util.h"

int main(int argc, char** argv) {
  const auto options = crew::bench::BenchOptions::Parse(argc, argv);
  std::printf(
      "== T4: sufficiency / comprehensiveness at k units ==\n"
      "matcher=%s samples=%d instances/dataset=%d\n\n",
      options.matcher.c_str(), options.samples, options.instances);

  crew::ExperimentRunner runner(
      crew::bench::SpecFromOptions("t4_suff_compr", options));
  auto setup = crew::bench::ValueOrDie(crew::MakeStreamSetup(options.run),
                                        options.run);
  auto result = runner.Run(setup.hooks);
  crew::bench::DieIfError(result.status(), options.run);

  crew::bench::EmitExperiment(
      *result, options,
      {crew::AggColumn("compr@1",
                       &crew::ExplainerAggregate::comprehensiveness_at_1),
       crew::AggColumn("compr@3",
                       &crew::ExplainerAggregate::comprehensiveness_at_3),
       crew::AggColumn("suff@1", &crew::ExplainerAggregate::sufficiency_at_1),
       crew::AggColumn("suff@3", &crew::ExplainerAggregate::sufficiency_at_3),
       crew::AggColumn("ins_aopc", &crew::ExplainerAggregate::insertion_aopc)});
  return 0;
}
