#include "crew/model/logistic_matcher.h"

#include "crew/common/trace.h"
#include "crew/model/metrics.h"

namespace crew {

Result<std::unique_ptr<LogisticMatcher>> LogisticMatcher::Train(
    const Dataset& train, std::shared_ptr<const EmbeddingStore> embeddings,
    const LogisticConfig& config) {
  if (train.empty()) {
    return Status::InvalidArgument("LogisticMatcher: empty training set");
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
    return Status::InvalidArgument("LogisticMatcher: no labeled pairs");
  }
  FeatureScaler scaler;
  scaler.Fit(rows);
  for (auto& row : rows) row = scaler.Transform(row);

  const int n = static_cast<int>(rows.size());
  const int d = static_cast<int>(rows[0].size());
  la::Vec w(d, 0.0);
  double b = 0.0;
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    la::Vec grad(d, 0.0);
    double grad_b = 0.0;
    for (int i = 0; i < n; ++i) {
      const double p = la::Sigmoid(la::Dot(w, rows[i]) + b);
      const double err = p - labels[i];
      la::Axpy(err, rows[i], grad);
      grad_b += err;
    }
    const double inv_n = 1.0 / n;
    for (int j = 0; j < d; ++j) {
      w[j] -= config.learning_rate * (grad[j] * inv_n + config.l2 * w[j]);
    }
    b -= config.learning_rate * grad_b * inv_n;
  }

  std::vector<double> scores(n);
  for (int i = 0; i < n; ++i) {
    scores[i] = la::Sigmoid(la::Dot(w, rows[i]) + b);
  }
  const double threshold = BestF1Threshold(scores, labels);
  return std::unique_ptr<LogisticMatcher>(new LogisticMatcher(
      std::move(featurizer), std::move(scaler), std::move(w), b, threshold));
}

double LogisticMatcher::PredictProba(const RecordPair& pair) const {
  const la::Vec x = scaler_.Transform(featurizer_.Extract(pair));
  return la::Sigmoid(la::Dot(weights_, x) + bias_);
}

void LogisticMatcher::PredictProbaBatch(const RecordPair* pairs, size_t count,
                                        double* out) const {
  CREW_TRACE_SPAN("matcher/logistic");
  la::Vec x;
  for (size_t i = 0; i < count; ++i) {
    featurizer_.ExtractInto(pairs[i], &x);
    scaler_.TransformInPlace(&x);
    out[i] = la::Sigmoid(la::Dot(weights_, x) + bias_);
  }
}

}  // namespace crew
