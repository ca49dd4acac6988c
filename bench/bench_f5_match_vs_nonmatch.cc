// F5 — Explanation quality split by predicted class.
//
// Landmark's motivating observation: explaining *non-matches* is the hard
// case for drop-only perturbation (removing tokens cannot create matching
// evidence). This bench reports AOPC separately for predicted matches and
// predicted non-matches. Expected shape: injection-capable explainers
// (landmark, lemon, crew) hold up on non-matches; plain LIME degrades.

#include <cstdio>

#include "bench_util.h"

int main(int argc, char** argv) {
  const auto options = crew::bench::BenchOptions::Parse(argc, argv);
  std::printf(
      "== F5: faithfulness split by predicted class ==\n"
      "matcher=%s samples=%d instances/dataset=%d\n\n",
      options.matcher.c_str(), options.samples, options.instances);

  crew::ExperimentRunner runner(
      crew::bench::SpecFromOptions("f5_match_vs_nonmatch", options));
  auto setup = crew::bench::ValueOrDie(crew::MakeStreamSetup(options.run),
                                        options.run);
  auto result = runner.Run(setup.hooks);
  crew::bench::DieIfError(result.status(), options.run);

  // The split is a filtered re-reduction of the per-instance records the
  // runner already collected — no second evaluation pass.
  crew::Table table(
      {"dataset", "explainer", "aopc(match)", "aopc(nonmatch)"});
  for (const crew::ExperimentCell& cell : result->cells) {
    const auto match = crew::ReduceInstancesIf(
        cell.variant, cell.instances,
        [](const crew::InstanceEvaluation& r) { return r.predicted_match; });
    const auto nonmatch = crew::ReduceInstancesIf(
        cell.variant, cell.instances,
        [](const crew::InstanceEvaluation& r) { return !r.predicted_match; });
    table.AddRow({cell.dataset, cell.variant,
                  match.instances > 0 ? crew::Table::Num(match.aopc) : "n/a",
                  nonmatch.instances > 0 ? crew::Table::Num(nonmatch.aopc)
                                         : "n/a"});
  }
  std::printf("%s\n", table.ToAligned().c_str());
  crew::bench::EmitJsonIfRequested(*result, options);
  return 0;
}
