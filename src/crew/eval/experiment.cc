#include "crew/eval/experiment.h"

#include <algorithm>

#include "crew/core/decision_units.h"
#include "crew/explain/certa.h"
#include "crew/explain/lemon.h"
#include "crew/explain/lime.h"
#include "crew/explain/mojito.h"
#include "crew/explain/random_explainer.h"
#include "crew/explain/shap.h"

namespace crew {

std::vector<std::unique_ptr<Explainer>> BuildExplainerSuite(
    std::shared_ptr<const EmbeddingStore> embeddings, const Dataset& support,
    const ExplainerSuiteConfig& config) {
  std::vector<std::unique_ptr<Explainer>> out;

  LimeConfig lime;
  lime.perturbation.num_samples = config.num_samples;
  out.push_back(std::make_unique<LimeExplainer>(lime));

  MojitoConfig mojito_drop;
  mojito_drop.mode = MojitoMode::kDrop;
  mojito_drop.perturbation.num_samples = config.num_samples;
  out.push_back(std::make_unique<MojitoExplainer>(mojito_drop));

  MojitoConfig mojito_copy;
  mojito_copy.mode = MojitoMode::kCopy;
  mojito_copy.perturbation.num_samples = config.num_samples;
  out.push_back(std::make_unique<MojitoExplainer>(mojito_copy));

  LandmarkConfig landmark;
  landmark.perturbation.num_samples = config.num_samples;
  out.push_back(std::make_unique<LandmarkExplainer>(landmark));

  LemonConfig lemon;
  lemon.perturbation.num_samples = config.num_samples;
  out.push_back(std::make_unique<LemonExplainer>(lemon));

  KernelShapConfig shap;
  shap.num_samples = config.num_samples;
  out.push_back(std::make_unique<KernelShapExplainer>(shap));

  CertaConfig certa;
  certa.substitutions_per_token = config.certa_substitutions;
  out.push_back(std::make_unique<CertaExplainer>(support, certa));

  if (config.include_random) {
    out.push_back(std::make_unique<RandomExplainer>());
  }

  DecisionUnitConfig wym;
  wym.perturbation.num_samples = config.num_samples;
  out.push_back(std::make_unique<DecisionUnitExplainer>(embeddings, wym));

  CrewConfig crew = config.crew;
  crew.importance.perturbation.num_samples = config.num_samples;
  out.push_back(std::make_unique<CrewExplainer>(embeddings, crew));
  return out;
}

std::vector<int> SelectExplainInstances(const Matcher& matcher,
                                        const Dataset& test, int n, Rng& rng) {
  std::vector<int> predicted_match, predicted_nonmatch;
  for (int i = 0; i < test.size(); ++i) {
    if (test.pair(i).label != 0 && test.pair(i).label != 1) continue;
    if (matcher.Predict(test.pair(i)) == 1) {
      predicted_match.push_back(i);
    } else {
      predicted_nonmatch.push_back(i);
    }
  }
  rng.Shuffle(predicted_match);
  rng.Shuffle(predicted_nonmatch);
  // Balanced draw, then symmetric backfill: whichever side runs short, the
  // other side tops the selection up to n (bounded by total availability).
  const int half = n / 2;
  std::vector<int> out;
  size_t m = 0, u = 0;
  while (static_cast<int>(out.size()) < half &&
         m < predicted_match.size()) {
    out.push_back(predicted_match[m++]);
  }
  while (static_cast<int>(out.size()) < n &&
         u < predicted_nonmatch.size()) {
    out.push_back(predicted_nonmatch[u++]);
  }
  while (static_cast<int>(out.size()) < n && m < predicted_match.size()) {
    out.push_back(predicted_match[m++]);
  }
  return out;
}

Result<UnitizedExplanation> ExplainAsUnitsEx(const Explainer& explainer,
                                             const Matcher& matcher,
                                             const RecordPair& pair,
                                             uint64_t seed) {
  // CREW is the one explainer producing multi-word units; detect it here so
  // callers can treat the whole line-up uniformly. (RTTI confined to the
  // evaluation harness.)
  UnitizedExplanation out;
  if (const auto* crew = dynamic_cast<const CrewExplainer*>(&explainer)) {
    auto clusters = crew->ExplainClusters(matcher, pair, seed);
    if (!clusters.ok()) return clusters.status();
    out.words = std::move(clusters.value().words);
    out.units = std::move(clusters.value().units);
    out.has_cluster_stats = true;
    out.cluster_coherence = clusters.value().coherence;
    out.cluster_silhouette = clusters.value().silhouette;
    out.chosen_k = clusters.value().chosen_k;
    return out;
  }
  if (const auto* wym =
          dynamic_cast<const DecisionUnitExplainer*>(&explainer)) {
    auto explained = wym->ExplainUnits(matcher, pair, seed);
    if (!explained.ok()) return explained.status();
    out.words = std::move(explained.value().first);
    out.units = std::move(explained.value().second);
    return out;
  }
  auto words = explainer.Explain(matcher, pair, seed);
  if (!words.ok()) return words.status();
  out.units = SingletonUnits(words.value());
  out.words = std::move(words.value());
  return out;
}

}  // namespace crew
