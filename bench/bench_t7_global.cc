// T7 — Global (dataset-level) explanation: which attributes and tokens
// drive the matcher overall. The audit view that lifts local CREW
// explanations to a model summary; sanity-checks that the matcher uses
// the decisive schema columns (model numbers, years, street numbers)
// rather than filler text.

#include <cstdio>

#include "bench_util.h"
#include "crew/eval/global_explanation.h"

int main(int argc, char** argv) {
  const auto options = crew::bench::BenchOptions::Parse(argc, argv);
  std::printf(
      "== T7: global explanations (attribute influence shares) ==\n"
      "matcher=%s samples=%d instances/dataset=%d\n\n",
      options.matcher.c_str(), options.samples, options.instances);

  // Each task prepares its own dataset, so a restored cell neither trains
  // nor explains anything.
  const auto spec = crew::bench::SpecFromOptions("t7_global", options);
  std::vector<crew::GridTask> tasks;
  for (const crew::BenchmarkEntry& entry : spec.datasets) {
    auto compute = [&, entry]() -> crew::Result<crew::ExperimentCell> {
      auto prepared = crew::PrepareDataset(entry, spec);
      if (!prepared.ok()) return prepared.status();
      crew::CrewConfig config;
      config.importance.perturbation.num_samples = options.samples;
      crew::CrewExplainer explainer(prepared->pipeline.embeddings, config);
      auto global = crew::BuildGlobalExplanation(
          explainer, *prepared->pipeline.matcher, prepared->pipeline.test,
          prepared->instances, options.seed);
      if (!global.ok()) return global.status();
      std::string tokens;
      for (size_t t = 0; t < global->tokens.size() && t < 4; ++t) {
        if (t > 0) tokens += ", ";
        tokens += global->tokens[t].token;
      }
      crew::ExperimentCell cell;
      cell.notes.push_back(
          {"top_attribute",
           global->attributes.empty() ? "-" : global->attributes[0].name});
      cell.notes.push_back({"top_tokens", tokens});
      if (!global->attributes.empty()) {
        cell.metrics.push_back({"top_share", global->attributes[0].share});
      }
      return cell;
    };
    tasks.push_back({entry.name, "crew-global", compute});
  }
  auto setup = crew::bench::ValueOrDie(crew::MakeStreamSetup(options.run),
                                        options.run);
  auto result =
      crew::RunGrid(crew::ExperimentHeader(spec), tasks, setup.hooks);
  crew::bench::DieIfError(result.status(), options.run);

  crew::bench::EmitExperiment(
      *result, options,
      {crew::NoteColumn("top attribute", "top_attribute"),
       crew::MetricColumn("share", "top_share", 2),
       crew::NoteColumn("top tokens", "top_tokens")},
      /*dataset_column=*/true, /*variant_column=*/false);
  return 0;
}
