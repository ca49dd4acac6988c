// F3 — Ablation of CREW's three knowledge sources.
//
// The abstract claims the clusters combine (1) semantic similarity,
// (2) attribute arrangement and (3) model importance. This bench runs all
// seven non-empty weight combinations and reports faithfulness + coherence
// + attribute purity, showing each source's contribution.

#include <cstdio>

#include "bench_util.h"

int main(int argc, char** argv) {
  const auto options = crew::bench::BenchOptions::Parse(argc, argv);
  std::printf(
      "== F3: ablation of CREW's knowledge sources ==\n"
      "matcher=%s samples=%d instances/dataset=%d (averaged over datasets)\n\n",
      options.matcher.c_str(), options.samples, options.instances);

  struct AblationCase {
    const char* name;
    crew::AffinityWeights weights;
  };
  static const AblationCase kCases[] = {
      {"sem", {1, 0, 0}},          {"attr", {0, 1, 0}},
      {"imp", {0, 0, 1}},          {"sem+attr", {1, 1, 0}},
      {"sem+imp", {1, 0, 1}},      {"attr+imp", {0, 1, 1}},
      {"sem+attr+imp", {1, 1, 1}},
  };

  auto spec = crew::bench::SpecFromOptions("f3_ablation", options);
  spec.suite = [samples = options.samples](
                   const crew::TrainedPipeline& pipeline) {
    std::vector<crew::SuiteEntry> suite;
    for (const AblationCase& ablation : kCases) {
      crew::CrewConfig config;
      config.importance.perturbation.num_samples = samples;
      config.affinity = ablation.weights;
      suite.push_back({ablation.name, std::make_unique<crew::CrewExplainer>(
                                          pipeline.embeddings, config)});
    }
    return suite;
  };
  crew::ExperimentRunner runner(std::move(spec));
  auto setup = crew::bench::ValueOrDie(crew::MakeStreamSetup(options.run),
                                        options.run);
  auto result = runner.Run(setup.hooks);
  crew::bench::DieIfError(result.status(), options.run);

  // Cross-dataset summary (the historical table shape): one row per
  // knowledge combination, averaged over every dataset's instances.
  crew::PrintResultTable(
      crew::bench::SummaryAcrossDatasets(*result),
      {crew::AggColumn("aopc", &crew::ExplainerAggregate::aopc),
       crew::AggColumn("compr@1",
                       &crew::ExplainerAggregate::comprehensiveness_at_1),
       crew::AggColumn("coherence",
                       &crew::ExplainerAggregate::cluster_coherence),
       crew::AggColumn("attr_purity",
                       &crew::ExplainerAggregate::attribute_purity, 2),
       crew::AggColumn("eff_units",
                       &crew::ExplainerAggregate::effective_units, 1)},
      /*dataset_column=*/false, /*variant_column=*/true);
  crew::bench::EmitJsonIfRequested(*result, options);
  return 0;
}
