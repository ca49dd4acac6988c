// F6 — Counterfactual flip-set size: how many explanation units (and how
// many words) must be removed, in the explainer's own ranking, before the
// prediction flips. CERTA's counterfactual criterion; smaller = the
// explanation isolates the decisive evidence. Also reports the flip rate
// (fraction of instances that flip at all before the explanation runs
// out).

#include <cstdio>

#include "bench_util.h"

int main(int argc, char** argv) {
  const auto options = crew::bench::BenchOptions::Parse(argc, argv);
  std::printf(
      "== F6: minimal flip sets ==\n"
      "matcher=%s samples=%d instances/dataset=%d (averaged over "
      "datasets)\n\n",
      options.matcher.c_str(), options.samples, options.instances);

  crew::ExperimentRunner runner(
      crew::bench::SpecFromOptions("f6_flipset", options));
  auto setup = crew::bench::ValueOrDie(crew::MakeStreamSetup(options.run),
                                        options.run);
  auto result = runner.Run(setup.hooks);
  crew::bench::DieIfError(result.status(), options.run);

  // Cross-dataset summary: flip stats are part of every per-instance
  // record, so this is a pure re-reduction.
  crew::PrintResultTable(
      crew::bench::SummaryAcrossDatasets(*result),
      {{"flip%",
        [](const crew::ExperimentCell& cell) {
          return crew::Table::Num(100.0 * cell.aggregate.flip_set_rate, 1);
        }},
       crew::AggColumn("units-to-flip",
                       &crew::ExplainerAggregate::flip_set_units, 2),
       crew::AggColumn("words-to-flip",
                       &crew::ExplainerAggregate::flip_set_tokens, 2)},
      /*dataset_column=*/false, /*variant_column=*/true);
  std::printf("(units/words averaged over flipped instances only)\n");
  crew::bench::EmitJsonIfRequested(*result, options);
  return 0;
}
