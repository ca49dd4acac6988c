// F7 — Ablation of CREW's design choices (beyond the knowledge sources of
// F3): clustering linkage, silhouette auto-K vs fixed K, and whether
// clusters are re-scored by actual deletion vs summing word weights.
//
// Expected shape: average linkage ~= complete > single (chaining hurts);
// re-scoring improves faithfulness measurably; auto-K tracks the best
// fixed K without tuning.

#include <cstdio>

#include "bench_util.h"

int main(int argc, char** argv) {
  const auto options = crew::bench::BenchOptions::Parse(argc, argv);
  std::printf(
      "== F7: ablation of CREW design choices ==\n"
      "matcher=%s samples=%d instances/dataset=%d (averaged over "
      "datasets)\n\n",
      options.matcher.c_str(), options.samples, options.instances);

  struct DesignCase {
    const char* name;
    crew::Linkage linkage;
    bool auto_k;
    bool rescore;
  };
  static const DesignCase kCases[] = {
      {"default (avg, auto-K, rescore)", crew::Linkage::kAverage, true, true},
      {"single linkage", crew::Linkage::kSingle, true, true},
      {"complete linkage", crew::Linkage::kComplete, true, true},
      {"no rescoring (sum weights)", crew::Linkage::kAverage, true, false},
      {"fixed K = max", crew::Linkage::kAverage, false, true},
  };

  auto spec = crew::bench::SpecFromOptions("f7_design_ablation", options);
  spec.suite = [samples = options.samples](
                   const crew::TrainedPipeline& pipeline) {
    std::vector<crew::SuiteEntry> suite;
    for (const DesignCase& design : kCases) {
      crew::CrewConfig config;
      config.importance.perturbation.num_samples = samples;
      config.linkage = design.linkage;
      config.auto_k = design.auto_k;
      config.rescore_clusters = design.rescore;
      suite.push_back({design.name, std::make_unique<crew::CrewExplainer>(
                                        pipeline.embeddings, config)});
    }
    return suite;
  };
  crew::ExperimentRunner runner(std::move(spec));
  auto setup = crew::bench::ValueOrDie(crew::MakeStreamSetup(options.run),
                                        options.run);
  auto result = runner.Run(setup.hooks);
  crew::bench::DieIfError(result.status(), options.run);

  crew::PrintResultTable(
      crew::bench::SummaryAcrossDatasets(*result),
      {crew::AggColumn("aopc", &crew::ExplainerAggregate::aopc),
       crew::AggColumn("compr@1",
                       &crew::ExplainerAggregate::comprehensiveness_at_1),
       crew::AggColumn("units", &crew::ExplainerAggregate::total_units, 1),
       crew::AggColumn("coherence",
                       &crew::ExplainerAggregate::cluster_coherence)},
      /*dataset_column=*/false, /*variant_column=*/true);
  crew::bench::EmitJsonIfRequested(*result, options);
  return 0;
}
