// F1 — Deletion curve: predicted-class probability as the top-supporting
// explanation units are progressively removed (fractions 0..1).
// A faithful explainer's curve falls fast and early; random falls slowly.
// Output: one TSV-style series per explainer (columns = fractions),
// averaged over instances and datasets.

#include <cstdio>

#include "bench_util.h"

int main(int argc, char** argv) {
  const auto options = crew::bench::BenchOptions::Parse(argc, argv);
  const std::vector<double> fractions = {0.0, 0.1, 0.2, 0.3, 0.4, 0.5,
                                         0.6, 0.7, 0.8, 0.9, 1.0};
  std::printf(
      "== F1: deletion curves (mean predicted-class prob vs fraction of "
      "units removed) ==\nmatcher=%s samples=%d instances/dataset=%d\n\n",
      options.matcher.c_str(), options.samples, options.instances);

  auto spec = crew::bench::SpecFromOptions("f1_deletion_curve", options);
  spec.eval.curve_fractions = fractions;
  crew::ExperimentRunner runner(std::move(spec));
  auto setup = crew::bench::ValueOrDie(crew::MakeStreamSetup(options.run),
                                        options.run);
  auto result = runner.Run(setup.hooks);
  crew::bench::DieIfError(result.status(), options.run);

  std::vector<std::string> header = {"explainer"};
  for (double f : fractions) header.push_back(crew::Table::Num(f, 1));
  crew::Table table(header);
  for (const std::string& name : result->VariantNames()) {
    const std::vector<double> curve = result->MeanCurve(name);
    if (curve.empty()) continue;
    std::vector<std::string> row = {name};
    for (double v : curve) row.push_back(crew::Table::Num(v));
    table.AddRow(std::move(row));
  }
  std::printf("%s\n", table.ToAligned().c_str());
  std::printf("(columns are the fraction of explanation units deleted)\n");
  crew::bench::EmitJsonIfRequested(*result, options);
  return 0;
}
