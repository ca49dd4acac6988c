// T5 — Comprehensibility: how much a user must read.
//
// CREW's claim is explanations that are *smaller* (few units), *coherent*
// (semantically similar words grouped) and *structured* (units respect
// attributes). Word-level baselines have one unit per word by construction.

#include <cstdio>

#include "bench_util.h"

int main(int argc, char** argv) {
  const auto options = crew::bench::BenchOptions::Parse(argc, argv);
  std::printf(
      "== T5: comprehensibility ==\n"
      "matcher=%s samples=%d instances/dataset=%d\n"
      "units: total explanation units; eff: units covering 90%% of weight\n\n",
      options.matcher.c_str(), options.samples, options.instances);

  crew::ExperimentRunner runner(
      crew::bench::SpecFromOptions("t5_comprehensibility", options));
  auto setup = crew::bench::ValueOrDie(crew::MakeStreamSetup(options.run),
                                        options.run);
  auto result = runner.Run(setup.hooks);
  crew::bench::DieIfError(result.status(), options.run);

  crew::bench::EmitExperiment(
      *result, options,
      {crew::AggColumn("units", &crew::ExplainerAggregate::total_units, 1),
       crew::AggColumn("eff_units",
                       &crew::ExplainerAggregate::effective_units, 1),
       crew::AggColumn("words/unit",
                       &crew::ExplainerAggregate::words_per_unit, 1),
       crew::AggColumn("coherence",
                       &crew::ExplainerAggregate::semantic_coherence),
       crew::AggColumn("attr_purity",
                       &crew::ExplainerAggregate::attribute_purity, 2)});
  return 0;
}
