// T3 — Faithfulness: AOPC deletion score of every explainer on every
// dataset (the paper's headline comparison). Also reports the equal-token
// comprehensiveness@5-words column, which removes CREW's advantage of
// deleting several words per unit.
//
// Expected shape: CREW >= Landmark/LEMON >= LIME/Mojito >> random.

#include <cstdio>

#include "bench_util.h"
#include "crew/eval/significance.h"

int main(int argc, char** argv) {
  const auto options = crew::bench::BenchOptions::Parse(argc, argv);
  std::printf(
      "== T3: faithfulness (AOPC deletion / equal-token compr@5w) ==\n"
      "matcher=%s samples=%d instances/dataset=%d\n\n",
      options.matcher.c_str(), options.samples, options.instances);

  crew::ExperimentRunner runner(
      crew::bench::SpecFromOptions("t3_faithfulness", options));
  auto setup = crew::bench::ValueOrDie(crew::MakeStreamSetup(options.run),
                                        options.run);
  auto result = runner.Run(setup.hooks);
  crew::bench::DieIfError(result.status(), options.run);

  crew::bench::EmitExperiment(
      *result, options,
      {crew::AggColumn("aopc", &crew::ExplainerAggregate::aopc),
       crew::AggColumn("compr@5w",
                       &crew::ExplainerAggregate::comprehensiveness_budget5),
       {"flip%",
        [](const crew::ExperimentCell& cell) {
          return crew::Table::Num(
              100.0 * cell.aggregate.decision_flip_rate, 1);
        }},
       crew::AggColumn("r2", &crew::ExplainerAggregate::surrogate_r2, 2)});

  std::printf("-- mean AOPC across datasets --\n");
  crew::Table summary({"explainer", "mean_aopc"});
  for (const std::string& name : result->VariantNames()) {
    summary.AddRow({name, crew::Table::Num(result->ReduceAcross(name).aopc)});
  }
  std::printf("%s\n", summary.ToAligned().c_str());

  // Paired bootstrap: is CREW's AOPC advantage over each baseline
  // statistically solid on these instances?
  const std::vector<double> crew_samples = result->PerInstanceAopc("crew");
  if (!crew_samples.empty()) {
    std::printf("-- paired bootstrap, crew vs baseline (one-sided) --\n");
    crew::Table sig({"baseline", "mean diff", "95% CI", "p-value"});
    for (const std::string& name : result->VariantNames()) {
      if (name == "crew") continue;
      const std::vector<double> samples = result->PerInstanceAopc(name);
      if (samples.size() != crew_samples.size()) continue;
      auto cmp = crew::PairedBootstrap(crew_samples, samples, 2000,
                                       options.seed);
      if (!cmp.ok()) continue;
      // Built with append: the operator+ chain trips GCC 12's -Wrestrict
      // false positive (PR105651) when inlined at -O2, which -Werror
      // would promote.
      std::string ci = "[";
      ci += crew::Table::Num(cmp->ci_low);
      ci += ", ";
      ci += crew::Table::Num(cmp->ci_high);
      ci += "]";
      sig.AddRow({name, crew::Table::Num(cmp->mean_difference), ci,
                  crew::Table::Num(cmp->p_value)});
    }
    std::printf("%s\n", sig.ToAligned().c_str());
  }
  return 0;
}
