// T2 — Matcher quality (precision / recall / F1) per dataset x matcher.
//
// Reproduces the "models under explanation are competent" table every EM
// explainability paper reports before evaluating explainers. Each matcher
// kind is one grid variant; no explaining happens, so each cell is a
// custom grid task and only resume and the emit path (table + --json) are
// shared with the explainer benches.
//
//   ./bench_t2_matchers [--matches 250] [--nonmatches 350] [--seed 7]

#include <cstdio>
#include <optional>

#include "bench_util.h"

int main(int argc, char** argv) {
  const auto options = crew::bench::BenchOptions::Parse(
      argc, argv, crew::bench::BenchKnobs::kDataOnly);
  std::printf("== T2: matcher quality (test F1) ==\n\n");

  crew::ExperimentResult header;
  header.name = "t2_matchers";
  header.params.push_back({"seed", std::to_string(options.seed)});
  // Restored cells skip TrainPipeline (the expensive part); each dataset is
  // generated lazily by its first fresh cell, so a fully restored row
  // costs nothing.
  const auto entries = options.Datasets();
  std::vector<std::optional<crew::Dataset>> datasets(entries.size());
  std::vector<crew::GridTask> tasks;
  for (size_t d = 0; d < entries.size(); ++d) {
    for (crew::MatcherKind kind : crew::AllMatcherKinds()) {
      auto compute = [&, d, kind]() -> crew::Result<crew::ExperimentCell> {
        if (!datasets[d].has_value()) {
          auto generated = crew::GenerateDataset(entries[d].config);
          if (!generated.ok()) return generated.status();
          datasets[d] = std::move(generated.value());
        }
        auto pipeline =
            crew::TrainPipeline(*datasets[d], kind, 0.7, options.seed);
        if (!pipeline.ok()) return pipeline.status();
        const auto& m = pipeline.value().test_metrics;
        crew::ExperimentCell cell;
        cell.metrics = {
            {"precision", m.Precision()},
            {"recall", m.Recall()},
            {"f1", m.F1()},
            {"threshold", pipeline.value().matcher->threshold()},
        };
        return cell;
      };
      tasks.push_back({entries[d].name, crew::MatcherKindName(kind), compute});
    }
  }
  auto setup = crew::bench::ValueOrDie(crew::MakeStreamSetup(options.run),
                                        options.run);
  auto result = crew::RunGrid(std::move(header), tasks, setup.hooks);
  crew::bench::DieIfError(result.status(), options.run);

  crew::bench::EmitExperiment(
      *result, options,
      {crew::MetricColumn("precision", "precision"),
       crew::MetricColumn("recall", "recall"),
       crew::MetricColumn("f1", "f1"),
       crew::MetricColumn("threshold", "threshold")});
  return 0;
}
