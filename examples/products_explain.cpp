// Product-catalog walkthrough: the scenario from the paper's motivation.
//
// Trains the neural matcher on a noisy product benchmark, then explains
// one predicted MATCH and one predicted NON-MATCH with the full explainer
// line-up, printing CREW's clusters next to each baseline's top words —
// the side-by-side the paper uses to argue comprehensibility.
//
//   ./examples/products_explain [--flavor dirty] [--seed 7]

#include <cstdio>

#include "crew/common/flags.h"
#include "crew/data/benchmark_suite.h"
#include "crew/eval/experiment.h"
#include "crew/core/counterfactual.h"
#include "crew/core/html_report.h"
#include "crew/eval/faithfulness.h"

namespace {

void ExplainOnePair(const crew::TrainedPipeline& pipeline,
                    const std::vector<std::unique_ptr<crew::Explainer>>& suite,
                    int index, uint64_t seed) {
  const crew::RecordPair& pair = pipeline.test.pair(index);
  const double score = pipeline.matcher->PredictProba(pair);
  std::printf("left : %s\n",
              pair.left.ToDisplayString(pipeline.test.schema()).c_str());
  std::printf("right: %s\n",
              pair.right.ToDisplayString(pipeline.test.schema()).c_str());
  std::printf("model: P(match) = %.3f -> %s   (gold: %s)\n\n", score,
              score >= pipeline.matcher->threshold() ? "MATCH" : "NON-MATCH",
              pair.label == 1 ? "match" : "non-match");

  crew::Tokenizer tokenizer;
  for (const auto& explainer : suite) {
    auto result =
        crew::ExplainAsUnitsEx(*explainer, *pipeline.matcher, pair, seed);
    if (!result.ok()) {
      std::fprintf(stderr, "%s: %s\n", explainer->Name().c_str(),
                   result.status().ToString().c_str());
      continue;
    }
    const auto& units = result->units;
    crew::EvalInstance instance{
        crew::PairTokenView(crew::AnonymousSchema(pair), tokenizer, pair),
        units, result->words.base_score, pipeline.matcher->threshold()};
    const double drop =
        crew::ComprehensivenessAtK(*pipeline.matcher, instance, 3);
    std::printf("  %-12s (%2d units, drop@3 = %+0.3f):",
                explainer->Name().c_str(), static_cast<int>(units.size()),
                drop);
    const auto ranked = instance.RankUnitsBySupport();
    for (int i = 0; i < 3 && i < static_cast<int>(ranked.size()); ++i) {
      std::printf("  [%+.3f] %s", units[ranked[i]].weight,
                  units[ranked[i]].label.c_str());
    }
    std::printf("\n");
  }
  std::printf("\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string flavor = "dirty";
  uint64_t seed = 7;
  crew::FlagParser flags;
  flags.Add("flavor", &flavor, "products dataset flavour: structured, "
            "textual or dirty");
  flags.Add("seed", &seed, "base seed of data, training and explanation");
  flags.ParseOrExit(argc, argv);

  auto dataset = crew::GenerateByName("products-" + flavor, seed);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  auto pipeline = crew::TrainPipeline(dataset.value(),
                                      crew::MatcherKind::kEmbeddingBag, 0.7,
                                      seed);
  if (!pipeline.ok()) {
    std::fprintf(stderr, "%s\n", pipeline.status().ToString().c_str());
    return 1;
  }
  const auto& p = pipeline.value();
  std::printf("products-%s | matcher %s | test F1 = %.3f\n\n", flavor.c_str(),
              p.matcher->Name().c_str(), p.test_metrics.F1());

  crew::ExplainerSuiteConfig config;
  config.num_samples = 192;
  config.include_random = false;
  const auto suite =
      crew::BuildExplainerSuite(p.embeddings, p.train, config);

  int match_idx = -1, nonmatch_idx = -1;
  for (int i = 0; i < p.test.size(); ++i) {
    const int pred = p.matcher->Predict(p.test.pair(i));
    if (pred == 1 && match_idx < 0) match_idx = i;
    if (pred == 0 && nonmatch_idx < 0) nonmatch_idx = i;
    if (match_idx >= 0 && nonmatch_idx >= 0) break;
  }
  if (match_idx >= 0) {
    std::printf("===== predicted MATCH =====\n");
    ExplainOnePair(p, suite, match_idx, seed);
  }
  if (nonmatch_idx >= 0) {
    std::printf("===== predicted NON-MATCH (the hard case) =====\n");
    ExplainOnePair(p, suite, nonmatch_idx, seed);
  }

  // Bonus artifacts from the CREW explanation of the match pair: a minimal
  // counterfactual and a colour-coded HTML report.
  if (match_idx >= 0) {
    const crew::RecordPair& pair = p.test.pair(match_idx);
    crew::CrewConfig crew_config;
    crew_config.importance.perturbation.num_samples = 192;
    crew::CrewExplainer crew_explainer(p.embeddings, crew_config);
    auto clusters = crew_explainer.ExplainClusters(*p.matcher, pair, seed);
    if (clusters.ok()) {
      crew::Tokenizer tokenizer;
      crew::PairTokenView view(crew::AnonymousSchema(pair), tokenizer, pair);
      const auto cf = crew::GenerateCounterfactual(
          *p.matcher, view, clusters->units, clusters->base_score());
      std::printf("===== counterfactual =====\n%s\n\n",
                  crew::DescribeCounterfactual(cf, p.matcher->threshold())
                      .c_str());
      const std::string html_path = "/tmp/crew_explanation.html";
      std::FILE* f = std::fopen(html_path.c_str(), "w");
      if (f != nullptr) {
        const std::string html = crew::RenderExplanationHtml(
            p.test.schema(), pair, clusters.value(),
            "CREW - products-" + flavor);
        std::fwrite(html.data(), 1, html.size(), f);
        std::fclose(f);
        std::printf("HTML report written to %s\n", html_path.c_str());
      }
    }
  }
  return 0;
}
