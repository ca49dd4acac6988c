#ifndef CREW_MODEL_MLP_MATCHER_H_
#define CREW_MODEL_MLP_MATCHER_H_

#include <memory>
#include <vector>

#include "crew/common/status.h"
#include "crew/data/dataset.h"
#include "crew/la/matrix.h"
#include "crew/model/features.h"
#include "crew/model/matcher.h"

namespace crew {

struct MlpConfig {
  int hidden_units = 16;
  int epochs = 60;
  double learning_rate = 0.05;
  double l2 = 1e-4;
  uint64_t seed = 19;
};

/// The matcher's network: one tanh hidden layer and a sigmoid output over
/// scaled features, trained by per-example SGD. Training and Forward add
/// the hidden bias at opposite ends of the sum: a training sum starts at 0
/// and adds b1[i] last, Forward starts from b1[i]. Both orders are kept
/// because every trained weight depends on the first and every score on
/// the second.
struct MlpNet {
  la::Matrix w1;  ///< hidden x input
  la::Vec b1;
  la::Vec w2;  ///< hidden
  double b2 = 0.0;

  /// SGD on `rows` (labels 0/1) for config.epochs epochs, in an order
  /// shuffled by config.seed. `rows` must be non-empty and equally sized.
  static MlpNet Train(const std::vector<la::Vec>& rows,
                      const std::vector<int>& labels, const MlpConfig& config);

  /// P(match) of the scaled feature vector `x`.
  double Forward(const la::Vec& x) const;
};

/// One-hidden-layer (tanh) neural matcher over PairFeaturizer features,
/// trained with per-sample SGD. A nonlinear black box whose decisions the
/// explainers cannot read off a weight vector.
class MlpMatcher : public Matcher {
 public:
  static Result<std::unique_ptr<MlpMatcher>> Train(
      const Dataset& train, std::shared_ptr<const EmbeddingStore> embeddings,
      const MlpConfig& config = MlpConfig());

  double PredictProba(const RecordPair& pair) const override;
  using Matcher::PredictProbaBatch;
  void PredictProbaBatch(const RecordPair* pairs, size_t count,
                         double* out) const override;
  double threshold() const override { return threshold_; }
  std::string Name() const override { return "mlp"; }

 private:
  MlpMatcher(PairFeaturizer featurizer, FeatureScaler scaler, MlpNet net,
             double threshold)
      : featurizer_(std::move(featurizer)), scaler_(std::move(scaler)),
        net_(std::move(net)), threshold_(threshold) {}

  PairFeaturizer featurizer_;
  FeatureScaler scaler_;
  MlpNet net_;
  double threshold_;
};

}  // namespace crew

#endif  // CREW_MODEL_MLP_MATCHER_H_
