#include "crew/model/mlp_matcher.h"

#include <cmath>

#include "crew/common/logging.h"
#include "crew/common/rng.h"
#include "crew/common/trace.h"
#include "crew/model/metrics.h"

namespace crew {
namespace {

// sums[i] = sum_j w1(i, j) * x[j], each summed from 0.0 in j order, as
// la::Dot would; four units' chains run interleaved so their adds overlap.
void TrainingHiddenSums(const la::Matrix& w1, const double* x, double* sums) {
  const int h = w1.rows();
  const int d = w1.cols();
  int i = 0;
  for (; i + 4 <= h; i += 4) {
    const double* r0 = w1.Row(i);
    const double* r1 = w1.Row(i + 1);
    const double* r2 = w1.Row(i + 2);
    const double* r3 = w1.Row(i + 3);
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (int j = 0; j < d; ++j) {
      s0 += r0[j] * x[j];
      s1 += r1[j] * x[j];
      s2 += r2[j] * x[j];
      s3 += r3[j] * x[j];
    }
    sums[i] = s0;
    sums[i + 1] = s1;
    sums[i + 2] = s2;
    sums[i + 3] = s3;
  }
  for (; i < h; ++i) {
    const double* row = w1.Row(i);
    double s = 0.0;
    for (int j = 0; j < d; ++j) s += row[j] * x[j];
    sums[i] = s;
  }
}

}  // namespace

MlpNet MlpNet::Train(const std::vector<la::Vec>& rows,
                     const std::vector<int>& labels, const MlpConfig& config) {
  CREW_CHECK(!rows.empty());
  const int n = static_cast<int>(rows.size());
  const int d = static_cast<int>(rows[0].size());
  const int h = config.hidden_units;
  Rng rng(config.seed);
  MlpNet net;
  net.w1 = la::Matrix(h, d);
  net.b1.assign(h, 0.0);
  net.w2.assign(h, 0.0);
  const double init = 1.0 / std::sqrt(static_cast<double>(d));
  for (int i = 0; i < h; ++i) {
    for (int j = 0; j < d; ++j) net.w1.At(i, j) = rng.Uniform(-init, init);
    net.w2[i] = rng.Uniform(-0.5, 0.5) / std::sqrt(static_cast<double>(h));
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
      // Forward, with b1[i] added last (see MlpNet).
      TrainingHiddenSums(net.w1, x.data(), hidden.data());
      for (int i = 0; i < h; ++i) {
        hidden[i] = std::tanh(hidden[i] + net.b1[i]);
      }
      const double p = la::Sigmoid(la::Dot(net.w2, hidden) + net.b2);
      const double err = p - labels[idx];
      // Backward.
      for (int i = 0; i < h; ++i) {
        delta_hidden[i] = err * net.w2[i] * (1.0 - hidden[i] * hidden[i]);
      }
      for (int i = 0; i < h; ++i) {
        net.w2[i] -= lr * (err * hidden[i] + config.l2 * net.w2[i]);
        double* row = net.w1.Row(i);
        for (int j = 0; j < d; ++j) {
          row[j] -= lr * (delta_hidden[i] * x[j] + config.l2 * row[j]);
        }
        net.b1[i] -= lr * delta_hidden[i];
      }
      net.b2 -= lr * err;
    }
  }
  return net;
}

double MlpNet::Forward(const la::Vec& x) const {
  const int h = w1.rows();
  const int d = w1.cols();
  double z = b2;
  for (int i = 0; i < h; ++i) {
    const double* row = w1.Row(i);
    double s = b1[i];
    for (int j = 0; j < d; ++j) s += row[j] * x[j];
    z += w2[i] * std::tanh(s);
  }
  return la::Sigmoid(z);
}

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
  for (auto& row : rows) scaler.TransformInPlace(&row);

  MlpNet net = MlpNet::Train(rows, labels, config);
  std::vector<double> scores(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) scores[i] = net.Forward(rows[i]);
  const double threshold = BestF1Threshold(scores, labels);
  return std::unique_ptr<MlpMatcher>(new MlpMatcher(
      std::move(featurizer), std::move(scaler), std::move(net), threshold));
}

double MlpMatcher::PredictProba(const RecordPair& pair) const {
  return net_.Forward(scaler_.Transform(featurizer_.Extract(pair)));
}

void MlpMatcher::PredictProbaBatch(const RecordPair* pairs, size_t count,
                                   double* out) const {
  CREW_TRACE_SPAN("matcher/mlp");
  la::Vec x;
  for (size_t i = 0; i < count; ++i) {
    featurizer_.ExtractInto(pairs[i], &x);
    scaler_.TransformInPlace(&x);
    out[i] = net_.Forward(x);
  }
}

}  // namespace crew
