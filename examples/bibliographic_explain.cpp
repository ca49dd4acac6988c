// Error-analysis scenario on bibliographic data: use CREW to understand
// the matcher's MISTAKES — false positives ("why did it merge two
// different papers?") and false negatives ("why did it miss this match?").
// This is the auditing workflow the paper motivates: a domain expert
// reviews model decisions through compact cluster explanations, and a
// global aggregate shows what the model relies on overall.
//
//   ./examples/bibliographic_explain [--seed 7]

#include <cstdio>

#include "crew/common/flags.h"
#include "crew/data/benchmark_suite.h"
#include "crew/eval/experiment.h"
#include "crew/eval/global_explanation.h"
#include "crew/explain/serialize.h"

int main(int argc, char** argv) {
  uint64_t seed = 7;
  crew::FlagParser flags;
  flags.Add("seed", &seed, "base seed of data, training and explanation");
  flags.ParseOrExit(argc, argv);

  auto dataset = crew::GenerateByName("biblio-dirty", seed);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  auto pipeline = crew::TrainPipeline(dataset.value(),
                                      crew::MatcherKind::kRandomForest, 0.7,
                                      seed);
  if (!pipeline.ok()) {
    std::fprintf(stderr, "%s\n", pipeline.status().ToString().c_str());
    return 1;
  }
  const auto& p = pipeline.value();
  std::printf("biblio-dirty | matcher %s | test F1 = %.3f\n\n",
              p.matcher->Name().c_str(), p.test_metrics.F1());

  crew::CrewConfig config;
  config.importance.perturbation.num_samples = 192;
  crew::CrewExplainer explainer(p.embeddings, config);

  int shown = 0;
  for (int i = 0; i < p.test.size() && shown < 2; ++i) {
    const crew::RecordPair& pair = p.test.pair(i);
    const int pred = p.matcher->Predict(pair);
    if (pred == pair.label) continue;  // only mistakes
    ++shown;
    std::printf("===== %s =====\n",
                pred == 1 ? "FALSE POSITIVE (wrongly merged)"
                          : "FALSE NEGATIVE (missed match)");
    std::printf("left : %s\n",
                pair.left.ToDisplayString(p.test.schema()).c_str());
    std::printf("right: %s\n",
                pair.right.ToDisplayString(p.test.schema()).c_str());
    auto clusters = explainer.ExplainClusters(*p.matcher, pair, seed + i);
    if (!clusters.ok()) {
      std::fprintf(stderr, "%s\n", clusters.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", clusters.value().ToString().c_str());
  }
  if (shown == 0) {
    std::printf("(matcher made no mistakes on the test split; "
                "try another --seed)\n\n");
  }

  // Global view: what drives this matcher across the whole test set?
  crew::Rng rng(seed);
  const auto instances =
      crew::SelectExplainInstances(*p.matcher, p.test, 20, rng);
  auto global =
      crew::BuildGlobalExplanation(explainer, *p.matcher, p.test, instances,
                                   seed);
  if (!global.ok()) {
    std::fprintf(stderr, "%s\n", global.status().ToString().c_str());
    return 1;
  }
  std::printf("===== global explanation (%d pairs) =====\n",
              global->instances);
  std::printf("attribute influence:\n");
  for (const auto& attr : global->attributes) {
    std::printf("  %-10s %5.1f%%\n", attr.name.c_str(), 100.0 * attr.share);
  }
  std::printf("most influential tokens:\n");
  for (size_t t = 0; t < global->tokens.size() && t < 8; ++t) {
    std::printf("  %-16s mean |w| = %.4f (seen %dx, direction %+.4f)\n",
                global->tokens[t].token.c_str(),
                global->tokens[t].mean_abs_weight,
                global->tokens[t].occurrences,
                global->tokens[t].mean_weight);
  }

  // Machine-readable export of one explanation (for UIs / notebooks).
  auto sample = explainer.ExplainClusters(*p.matcher, p.test.pair(0), seed);
  if (sample.ok()) {
    std::printf("\n===== JSON export (pair 0) =====\n%s\n",
                crew::ClusterExplanationToJson(sample.value()).c_str());
  }
  return 0;
}
