#include "crew/model/mlp_matcher.h"

#include <cmath>

#include "crew/common/rng.h"
#include "crew/common/trace.h"
#include "crew/model/metrics.h"

namespace crew {

Result<std::unique_ptr<MlpMatcher>> MlpMatcher::Train(
    const Dataset& train, std::shared_ptr<const EmbeddingStore> embeddings,
    const MlpConfig& config) {
  if (train.empty()) {
    return Status::InvalidArgument("MlpMatcher: empty training set");
  }
  if (config.hidden_units <= 0) {
    return Status::InvalidArgument("MlpMatcher: hidden_units must be > 0");
  }
  PairFeaturizer featurizer(train.schema(), std::move(embeddings));
  std::vector<la::Vec> rows;
  std::vector<int> labels;
  for (const auto& pair : train.pairs()) {
    if (pair.label != 0 && pair.label != 1) continue;
    rows.push_back(featurizer.Extract(pair));
    labels.push_back(pair.label);
  }
  if (rows.empty()) {
    return Status::InvalidArgument("MlpMatcher: no labeled pairs");
  }
  FeatureScaler scaler;
  scaler.Fit(rows);
  for (auto& row : rows) row = scaler.Transform(row);

  const int n = static_cast<int>(rows.size());
  const int d = static_cast<int>(rows[0].size());
  const int h = config.hidden_units;
  Rng rng(config.seed);
  la::Matrix w1(h, d);
  la::Vec b1(h, 0.0), w2(h, 0.0);
  double b2 = 0.0;
  const double init = 1.0 / std::sqrt(static_cast<double>(d));
  for (int i = 0; i < h; ++i) {
    for (int j = 0; j < d; ++j) w1.At(i, j) = rng.Uniform(-init, init);
    w2[i] = rng.Uniform(-0.5, 0.5) / std::sqrt(static_cast<double>(h));
  }

  std::vector<int> order(n);
  for (int i = 0; i < n; ++i) order[i] = i;
  la::Vec hidden(h), delta_hidden(h);

  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    rng.Shuffle(order);
    const double lr = config.learning_rate /
                      (1.0 + 0.05 * static_cast<double>(epoch));
    for (int idx : order) {
      const la::Vec& x = rows[idx];
      // Forward.
      for (int i = 0; i < h; ++i) {
        hidden[i] = std::tanh(la::Dot(la::Vec(w1.Row(i), w1.Row(i) + d), x) +
                              b1[i]);
      }
      const double p = la::Sigmoid(la::Dot(w2, hidden) + b2);
      const double err = p - labels[idx];
      // Backward.
      for (int i = 0; i < h; ++i) {
        delta_hidden[i] = err * w2[i] * (1.0 - hidden[i] * hidden[i]);
      }
      for (int i = 0; i < h; ++i) {
        w2[i] -= lr * (err * hidden[i] + config.l2 * w2[i]);
        double* row = w1.Row(i);
        for (int j = 0; j < d; ++j) {
          row[j] -= lr * (delta_hidden[i] * x[j] + config.l2 * row[j]);
        }
        b1[i] -= lr * delta_hidden[i];
      }
      b2 -= lr * err;
    }
  }

  auto forward = [&](const la::Vec& x) {
    double z = b2;
    for (int i = 0; i < h; ++i) {
      const double* row = w1.Row(i);
      double s = b1[i];
      for (int j = 0; j < d; ++j) s += row[j] * x[j];
      z += w2[i] * std::tanh(s);
    }
    return la::Sigmoid(z);
  };
  std::vector<double> scores(n);
  for (int i = 0; i < n; ++i) scores[i] = forward(rows[i]);
  const double threshold = BestF1Threshold(scores, labels);

  return std::unique_ptr<MlpMatcher>(
      new MlpMatcher(std::move(featurizer), std::move(scaler), std::move(w1),
                     std::move(b1), std::move(w2), b2, threshold));
}

double MlpMatcher::Forward(const la::Vec& x) const {
  const int h = w1_.rows();
  const int d = w1_.cols();
  double z = b2_;
  for (int i = 0; i < h; ++i) {
    const double* row = w1_.Row(i);
    double s = b1_[i];
    for (int j = 0; j < d; ++j) s += row[j] * x[j];
    z += w2_[i] * std::tanh(s);
  }
  return la::Sigmoid(z);
}

double MlpMatcher::PredictProba(const RecordPair& pair) const {
  return Forward(scaler_.Transform(featurizer_.Extract(pair)));
}

void MlpMatcher::PredictProbaBatch(const RecordPair* pairs, size_t count,
                                   double* out) const {
  CREW_TRACE_SPAN("matcher/mlp");
  la::Vec x;
  for (size_t i = 0; i < count; ++i) {
    featurizer_.ExtractInto(pairs[i], &x);
    scaler_.TransformInPlace(&x);
    out[i] = Forward(x);
  }
}

}  // namespace crew
