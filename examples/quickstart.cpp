// Quickstart: generate an EM benchmark, train a matcher, explain one
// prediction with CREW, and print the cluster explanation next to LIME's
// word soup.
//
//   ./examples/quickstart [--dataset products-structured] [--seed 7]

#include <cstdio>

#include "crew/common/flags.h"
#include "crew/core/crew_explainer.h"
#include "crew/data/benchmark_suite.h"
#include "crew/explain/lime.h"
#include "crew/model/trainer.h"

int main(int argc, char** argv) {
  std::string dataset_name = "products-structured";
  uint64_t seed = 7;
  crew::FlagParser flags;
  flags.Add("dataset", &dataset_name, "benchmark dataset to explain");
  flags.Add("seed", &seed, "base seed of data, training and explanation");
  flags.ParseOrExit(argc, argv);

  // 1. Data: a synthetic Magellan-style benchmark with known ground truth.
  auto dataset = crew::GenerateByName(dataset_name, seed);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }

  // 2. Model: split, train SGNS embeddings + an embedding-bag neural
  //    matcher, evaluate on the held-out pairs.
  auto pipeline = crew::TrainPipeline(dataset.value(),
                                      crew::MatcherKind::kEmbeddingBag,
                                      /*train_fraction=*/0.7, seed);
  if (!pipeline.ok()) {
    std::fprintf(stderr, "%s\n", pipeline.status().ToString().c_str());
    return 1;
  }
  const auto& p = pipeline.value();
  std::printf("dataset: %s (%d pairs)\n", dataset_name.c_str(),
              dataset.value().size());
  std::printf("matcher: %s  test F1 = %.3f (P = %.3f, R = %.3f)\n\n",
              p.matcher->Name().c_str(), p.test_metrics.F1(),
              p.test_metrics.Precision(), p.test_metrics.Recall());

  // 3. Pick one interesting test pair (first predicted match).
  int chosen = 0;
  for (int i = 0; i < p.test.size(); ++i) {
    if (p.matcher->Predict(p.test.pair(i)) == 1) {
      chosen = i;
      break;
    }
  }
  const crew::RecordPair& pair = p.test.pair(chosen);
  std::printf("left : %s\n",
              pair.left.ToDisplayString(p.test.schema()).c_str());
  std::printf("right: %s\n\n",
              pair.right.ToDisplayString(p.test.schema()).c_str());

  // 4. CREW explanation: few clusters of words.
  crew::CrewExplainer crew_explainer(p.embeddings);
  auto clusters = crew_explainer.ExplainClusters(*p.matcher, pair, seed);
  if (!clusters.ok()) {
    std::fprintf(stderr, "%s\n", clusters.status().ToString().c_str());
    return 1;
  }
  std::printf("== CREW (clusters of words) ==\n%s\n",
              clusters.value().ToString().c_str());

  // 5. LIME for contrast: one weight per word.
  crew::LimeExplainer lime;
  auto words = lime.Explain(*p.matcher, pair, seed);
  if (!words.ok()) {
    std::fprintf(stderr, "%s\n", words.status().ToString().c_str());
    return 1;
  }
  std::printf("== LIME (words, top 10 of %d) ==\n",
              static_cast<int>(words.value().attributions.size()));
  int shown = 0;
  for (int idx : words.value().RankedByMagnitude()) {
    const auto& a = words.value().attributions[idx];
    std::printf("  [%+.4f] %s (%s/%s)\n", a.weight, a.token.text.c_str(),
                crew::SideName(a.token.side),
                p.test.schema().name(a.token.attribute).c_str());
    if (++shown >= 10) break;
  }
  return 0;
}
