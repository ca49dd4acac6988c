#ifndef CREW_EVAL_EXPERIMENT_H_
#define CREW_EVAL_EXPERIMENT_H_

#include <memory>
#include <string>
#include <vector>

#include "crew/core/crew_explainer.h"
#include "crew/data/dataset.h"
#include "crew/eval/comprehensibility.h"
#include "crew/eval/faithfulness.h"
#include "crew/model/trainer.h"

namespace crew {

/// Configuration of the explainer line-up used by the comparison tables.
struct ExplainerSuiteConfig {
  /// Perturbation samples per explanation for every sampling explainer.
  int num_samples = 128;
  /// Counterfactual substitutions per token for CERTA.
  int certa_substitutions = 6;
  bool include_random = true;
  /// CREW's own knobs (its perturbation budget is synced to num_samples).
  CrewConfig crew;
};

/// Builds the full line-up: lime, mojito_drop, mojito_copy, landmark,
/// lemon, certa, (random), wym, crew — in canonical table order.
/// `support` feeds CERTA's counterfactual pools (use the training split);
/// `embeddings` feed CREW's semantic knowledge.
std::vector<std::unique_ptr<Explainer>> BuildExplainerSuite(
    std::shared_ptr<const EmbeddingStore> embeddings, const Dataset& support,
    const ExplainerSuiteConfig& config);

/// Picks up to `n` indices of labeled test pairs, balanced between pairs
/// the *matcher* predicts as match and as non-match (explanations are about
/// predictions, not gold labels).
std::vector<int> SelectExplainInstances(const Matcher& matcher,
                                        const Dataset& test, int n, Rng& rng);

/// Per-explainer aggregate over a set of explained instances. Every column
/// any experiment table prints is a mean of the per-instance records the
/// runner collects (see crew/eval/runner.h); the reduction is deterministic
/// (instance-index order), so aggregates are bit-identical for any
/// `--threads` value.
struct ExplainerAggregate {
  std::string name;
  int instances = 0;
  // Faithfulness (higher comprehensiveness/AOPC better; lower suff better).
  double aopc = 0.0;
  double comprehensiveness_at_1 = 0.0;
  double comprehensiveness_at_3 = 0.0;
  double sufficiency_at_1 = 0.0;
  double sufficiency_at_3 = 0.0;
  double comprehensiveness_budget5 = 0.0;  ///< equal-token (5 words) budget
  double decision_flip_rate = 0.0;
  double insertion_aopc = 0.0;
  // Minimal flip sets (units/tokens averaged over flipped instances only).
  double flip_set_rate = 0.0;
  double flip_set_units = 0.0;
  double flip_set_tokens = 0.0;
  // Comprehensibility.
  double total_units = 0.0;
  double effective_units = 0.0;
  double words_per_unit = 0.0;
  double semantic_coherence = 0.0;
  double attribute_purity = 0.0;
  // Cluster-level signals (CREW-family explainers only; 0 otherwise).
  double cluster_coherence = 0.0;
  double cluster_silhouette = 0.0;
  double mean_chosen_k = 0.0;
  /// Mean seed-stability Jaccard; only populated when the runner was asked
  /// to measure stability (InstanceEvalOptions::stability_seeds).
  double stability = 0.0;
  // Bookkeeping.
  double surrogate_r2 = 0.0;
  double runtime_ms = 0.0;
};

/// One explanation lifted to evaluation units, plus the cluster-level
/// diagnostics that only cluster explainers (CREW) produce.
struct UnitizedExplanation {
  WordExplanation words;
  std::vector<ExplanationUnit> units;
  /// Valid only when has_cluster_stats (the explainer was CREW).
  bool has_cluster_stats = false;
  double cluster_coherence = 0.0;
  double cluster_silhouette = 0.0;
  int chosen_k = 0;
};

/// Unitizes one explanation: CREW -> clusters (keeping coherence /
/// silhouette / chosen K), WYM -> decision units, everything else ->
/// one-word units.
Result<UnitizedExplanation> ExplainAsUnitsEx(const Explainer& explainer,
                                             const Matcher& matcher,
                                             const RecordPair& pair,
                                             uint64_t seed);

}  // namespace crew

#endif  // CREW_EVAL_EXPERIMENT_H_
