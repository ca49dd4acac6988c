// F2 — Sensitivity to the number of clusters K.
//
// Sweeps CREW's cluster budget (auto-K disabled) and reports faithfulness
// (AOPC), coherence and silhouette per K, plus the K that silhouette-based
// auto selection picks. Expected shape: faithfulness saturates at small K
// while comprehensibility degrades as K grows toward word-level.

#include <cstdio>

#include "bench_util.h"

int main(int argc, char** argv) {
  const auto options = crew::bench::BenchOptions::Parse(argc, argv);
  std::printf(
      "== F2: CREW sensitivity to K ==\n"
      "matcher=%s samples=%d instances/dataset=%d\n\n",
      options.matcher.c_str(), options.samples, options.instances);

  auto spec = crew::bench::SpecFromOptions("f2_k_sensitivity", options);
  spec.suite = [samples = options.samples](
                   const crew::TrainedPipeline& pipeline) {
    std::vector<crew::SuiteEntry> suite;
    for (int k = 2; k <= 12; k += 2) {
      crew::CrewConfig config;
      config.importance.perturbation.num_samples = samples;
      config.auto_k = false;
      config.min_clusters = k;
      config.max_clusters = k;
      suite.push_back({"k=" + std::to_string(k),
                       std::make_unique<crew::CrewExplainer>(
                           pipeline.embeddings, config)});
    }
    crew::CrewConfig auto_config;
    auto_config.importance.perturbation.num_samples = samples;
    suite.push_back({"auto-K", std::make_unique<crew::CrewExplainer>(
                                   pipeline.embeddings, auto_config)});
    return suite;
  };
  crew::ExperimentRunner runner(std::move(spec));
  auto setup = crew::bench::ValueOrDie(crew::MakeStreamSetup(options.run),
                                        options.run);
  auto result = runner.Run(setup.hooks);
  crew::bench::DieIfError(result.status(), options.run);

  crew::bench::EmitExperiment(
      *result, options,
      {crew::AggColumn("aopc", &crew::ExplainerAggregate::aopc),
       crew::AggColumn("coherence",
                       &crew::ExplainerAggregate::cluster_coherence),
       crew::AggColumn("silhouette",
                       &crew::ExplainerAggregate::cluster_silhouette),
       crew::AggColumn("eff_units",
                       &crew::ExplainerAggregate::effective_units, 1),
       crew::AggColumn("mean_k", &crew::ExplainerAggregate::mean_chosen_k, 1)});
  return 0;
}
