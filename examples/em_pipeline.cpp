// Full EM stack walkthrough: blocking -> matching -> explaining.
//
// Starts from two raw record tables (the realistic input), runs the token
// blocker to generate candidates, scores them with a trained matcher, and
// explains the borderline decisions with CREW — the complete pipeline a
// deployed entity-resolution system runs, end to end in one binary.
//
//   ./examples/em_pipeline [--dataset restaurants-dirty] [--seed 7]

#include <cmath>
#include <cstdio>

#include "crew/common/flags.h"
#include "crew/core/crew_explainer.h"
#include "crew/data/benchmark_suite.h"
#include "crew/data/blocking.h"
#include "crew/model/trainer.h"

int main(int argc, char** argv) {
  std::string dataset_name = "restaurants-dirty";
  uint64_t seed = 7;
  crew::FlagParser flags;
  flags.Add("dataset", &dataset_name, "benchmark dataset to block and match");
  flags.Add("seed", &seed, "base seed of data, training and explanation");
  flags.ParseOrExit(argc, argv);

  auto dataset = crew::GenerateByName(dataset_name, seed);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }

  // --- Stage 1: blocking over the two raw tables. ---
  const crew::TablePair tables = crew::ToTables(dataset.value());
  crew::TokenBlocker blocker;
  const auto candidates = blocker.GenerateCandidates(tables);
  const auto blocking = crew::EvaluateBlocking(tables, candidates);
  std::printf("== stage 1: blocking ==\n");
  std::printf(
      "tables: %zu x %zu records -> %d candidates "
      "(pair completeness %.3f, reduction ratio %.3f)\n\n",
      tables.left.size(), tables.right.size(), blocking.candidates,
      blocking.PairCompleteness(),
      blocking.ReductionRatio(static_cast<int>(tables.left.size()),
                              static_cast<int>(tables.right.size())));

  // --- Stage 2: train a matcher on the labeled pairs, score candidates. ---
  auto pipeline = crew::TrainPipeline(dataset.value(),
                                      crew::MatcherKind::kRandomForest, 0.7,
                                      seed);
  if (!pipeline.ok()) {
    std::fprintf(stderr, "%s\n", pipeline.status().ToString().c_str());
    return 1;
  }
  const auto& p = pipeline.value();
  std::printf("== stage 2: matching ==\n");
  std::printf("matcher %s, test F1 = %.3f, threshold %.3f\n",
              p.matcher->Name().c_str(), p.test_metrics.F1(),
              p.matcher->threshold());

  int predicted_matches = 0;
  crew::RecordPair uncertain;
  double closest_margin = 1e9;
  for (const auto& [li, ri] : candidates) {
    crew::RecordPair candidate;
    candidate.left = tables.left[li];
    candidate.right = tables.right[ri];
    const double score = p.matcher->PredictProba(candidate);
    if (score >= p.matcher->threshold()) ++predicted_matches;
    const double margin = std::fabs(score - p.matcher->threshold());
    if (margin < closest_margin) {
      closest_margin = margin;
      uncertain = candidate;
    }
  }
  std::printf("candidates scored: %d predicted matches of %d candidates\n\n",
              predicted_matches, blocking.candidates);

  // --- Stage 3: explain the most uncertain candidate decision — the pair
  // a human reviewer would be shown first. ---
  std::printf("== stage 3: explaining the most uncertain candidate ==\n");
  std::printf("left : %s\n",
              uncertain.left.ToDisplayString(dataset->schema()).c_str());
  std::printf("right: %s\n",
              uncertain.right.ToDisplayString(dataset->schema()).c_str());
  crew::CrewConfig config;
  config.importance.perturbation.num_samples = 192;
  crew::CrewExplainer explainer(p.embeddings, config);
  auto clusters = explainer.ExplainClusters(*p.matcher, uncertain, seed);
  if (!clusters.ok()) {
    std::fprintf(stderr, "%s\n", clusters.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", clusters.value().ToString().c_str());
  return 0;
}
