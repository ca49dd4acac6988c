#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "crew/common/rng.h"
#include "crew/data/generator.h"
#include "crew/la/matrix.h"
#include "crew/model/embedding_bag_matcher.h"
#include "crew/model/mlp_matcher.h"
#include "crew/model/trainer.h"

namespace crew {
namespace {

// Shared fixture data: one easy structured dataset, generated once.
const Dataset& EasyDataset() {
  static const Dataset* dataset = [] {
    GeneratorConfig config;
    config.domain = Domain::kProducts;
    config.flavor = Flavor::kStructured;
    config.num_matches = 150;
    config.num_nonmatches = 200;
    config.seed = 7;
    auto d = GenerateDataset(config);
    CREW_CHECK(d.ok());
    return new Dataset(std::move(d.value()));
  }();
  return *dataset;
}

uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

class MatcherKindTest : public ::testing::TestWithParam<MatcherKind> {};

TEST_P(MatcherKindTest, LearnsEasyDataset) {
  auto pipeline = TrainPipeline(EasyDataset(), GetParam(), 0.7, 7);
  ASSERT_TRUE(pipeline.ok()) << pipeline.status().ToString();
  EXPECT_GT(pipeline->test_metrics.F1(), 0.8)
      << MatcherKindName(GetParam());
}

TEST_P(MatcherKindTest, ScoresAreProbabilities) {
  auto pipeline = TrainPipeline(EasyDataset(), GetParam(), 0.7, 7);
  ASSERT_TRUE(pipeline.ok());
  for (int i = 0; i < std::min(50, pipeline->test.size()); ++i) {
    const double p = pipeline->matcher->PredictProba(pipeline->test.pair(i));
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
  // Calibrated threshold is a valid probability (1.0 is legitimate for a
  // forest that separates the training data perfectly).
  EXPECT_GT(pipeline->matcher->threshold(), 0.0);
  EXPECT_LE(pipeline->matcher->threshold(), 1.0);
}

TEST_P(MatcherKindTest, DeterministicTraining) {
  auto a = TrainPipeline(EasyDataset(), GetParam(), 0.7, 7);
  auto b = TrainPipeline(EasyDataset(), GetParam(), 0.7, 7);
  ASSERT_TRUE(a.ok() && b.ok());
  const RecordPair& pair = a->test.pair(0);
  EXPECT_DOUBLE_EQ(a->matcher->PredictProba(pair),
                   b->matcher->PredictProba(pair));
}

TEST_P(MatcherKindTest, PredictUsesCalibratedThreshold) {
  auto pipeline = TrainPipeline(EasyDataset(), GetParam(), 0.7, 7);
  ASSERT_TRUE(pipeline.ok());
  const Matcher& m = *pipeline->matcher;
  for (int i = 0; i < std::min(20, pipeline->test.size()); ++i) {
    const RecordPair& pair = pipeline->test.pair(i);
    EXPECT_EQ(m.Predict(pair),
              m.PredictProba(pair) >= m.threshold() ? 1 : 0);
  }
}

TEST_P(MatcherKindTest, ScoresIndependentOfEarlierCallsOnTheThread) {
  // Feature-based matchers featurize through a memo that lives as long as
  // the thread. Interleaved batch and single-pair calls here must score
  // exactly what a new thread scores pair by pair, in reverse order.
  auto pipeline = TrainPipeline(EasyDataset(), GetParam(), 0.7, 7);
  ASSERT_TRUE(pipeline.ok());
  const Matcher& m = *pipeline->matcher;
  // Variants of six pairs, each with one value emptied: most attribute
  // values repeat across calls.
  std::vector<RecordPair> pairs;
  for (int i = 0; i < 36; ++i) {
    RecordPair pair = pipeline->test.pair(i % 6);
    if (i >= 6) {
      auto& values = i % 2 == 0 ? pair.left.values : pair.right.values;
      values[(i / 6) % values.size()].clear();
    }
    pairs.push_back(std::move(pair));
  }
  std::vector<double> got(pairs.size());
  m.PredictProbaBatch(pairs.data(), pairs.size(), got.data());
  std::vector<double> got_again(pairs.size());
  size_t next = 0;
  for (const size_t size : {5, 1, 5, 5, 1, 5, 5, 1, 5, 3}) {
    m.PredictProbaBatch(pairs.data() + next, size, got_again.data() + next);
    next += size;
    EXPECT_EQ(Bits(m.PredictProba(pairs[next % pairs.size()])),
              Bits(got[next % pairs.size()]));
  }
  ASSERT_EQ(next, pairs.size());

  std::vector<double> reference(pairs.size());
  std::thread fresh([&] {
    for (size_t i = pairs.size(); i-- > 0;) {
      reference[i] = m.PredictProba(pairs[i]);
    }
  });
  fresh.join();
  for (size_t i = 0; i < pairs.size(); ++i) {
    EXPECT_EQ(Bits(got[i]), Bits(reference[i])) << i;
    EXPECT_EQ(Bits(got_again[i]), Bits(reference[i])) << i;
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, MatcherKindTest,
                         ::testing::ValuesIn(AllMatcherKinds()),
                         [](const auto& info) {
                           return std::string(MatcherKindName(info.param));
                         });

TEST(TrainerTest, RejectsEmptyDataset) {
  EXPECT_FALSE(TrainPipeline(Dataset(), MatcherKind::kLogistic).ok());
  EXPECT_FALSE(
      TrainMatcher(MatcherKind::kLogistic, Dataset(), nullptr).ok());
}

TEST(TrainerTest, MatcherKindNamesDistinct) {
  std::set<std::string> names;
  for (MatcherKind kind : AllMatcherKinds()) {
    names.insert(MatcherKindName(kind));
  }
  EXPECT_EQ(names.size(), AllMatcherKinds().size());
}

TEST(TrainerTest, MatcherKindFromNameInvertsKindName) {
  for (MatcherKind kind : AllMatcherKinds()) {
    auto parsed = MatcherKindFromName(MatcherKindName(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_EQ(MatcherKindFromName("mlpp").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(MatcherKindFromName("").ok());
}

TEST(TrainerTest, MatcherNameMatchesKindName) {
  for (MatcherKind kind : AllMatcherKinds()) {
    auto pipeline = TrainPipeline(EasyDataset(), kind, 0.7, 7);
    ASSERT_TRUE(pipeline.ok());
    EXPECT_EQ(pipeline->matcher->Name(), MatcherKindName(kind));
  }
}

// The embedding-bag network as it was first written: row-major hidden
// weights, one dot product per unit. EmbeddingBagNet must reproduce it bit
// for bit.
struct RowMajorNet {
  la::Matrix w1;  // h x d
  la::Vec b1, w2;
  double b2 = 0.0;
};

RowMajorNet TrainRowMajor(const std::vector<la::Vec>& rows,
                          const std::vector<int>& labels,
                          const EmbeddingBagConfig& config) {
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
    const double lr =
        config.learning_rate / (1.0 + 0.05 * static_cast<double>(epoch));
    for (int idx : order) {
      const la::Vec& x = rows[idx];
      for (int i = 0; i < h; ++i) {
        const double* row = w1.Row(i);
        double s = b1[i];
        for (int j = 0; j < d; ++j) s += row[j] * x[j];
        hidden[i] = std::tanh(s);
      }
      const double p = la::Sigmoid(la::Dot(w2, hidden) + b2);
      const double err = p - labels[idx];
      for (int i = 0; i < h; ++i) {
        delta_hidden[i] = err * w2[i] * (1.0 - hidden[i] * hidden[i]);
      }
      for (int i = 0; i < h; ++i) {
        w2[i] -= lr * (err * hidden[i] + config.l2 * w2[i]);
        double* row = w1.Row(i);
        const double dh = delta_hidden[i];
        for (int j = 0; j < d; ++j) {
          row[j] -= lr * (dh * x[j] + config.l2 * row[j]);
        }
        b1[i] -= lr * dh;
      }
      b2 -= lr * err;
    }
  }
  return {std::move(w1), std::move(b1), std::move(w2), b2};
}

double ForwardRowMajor(const RowMajorNet& net, const la::Vec& x) {
  const int h = net.w1.rows();
  const int d = net.w1.cols();
  double z = net.b2;
  for (int i = 0; i < h; ++i) {
    const double* row = net.w1.Row(i);
    double s = net.b1[i];
    for (int j = 0; j < d; ++j) s += row[j] * x[j];
    z += net.w2[i] * std::tanh(s);
  }
  return la::Sigmoid(z);
}

TEST(EmbeddingBagNetTest, BitIdenticalToRowMajorLoops) {
  // 97 hidden units: well past the default 24 and not a multiple of any
  // vector width, so the vectorized loops' remainder path is covered too.
  for (uint64_t seed : {1ULL, 23ULL, 4242ULL}) {
    for (int hidden_units : {1, 24, 97}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " hidden_units=" + std::to_string(hidden_units));
      Rng rng(seed * 31 + 5);
      const int d = 37;
      std::vector<la::Vec> rows(60, la::Vec(d));
      std::vector<int> labels;
      for (la::Vec& row : rows) {
        for (double& v : row) v = rng.Uniform(-1.0, 1.0);
        labels.push_back(row[0] + row[1] > 0.0 ? 1 : 0);
      }
      EmbeddingBagConfig config;
      config.hidden_units = hidden_units;
      config.epochs = 12;
      config.seed = seed;
      const EmbeddingBagNet net = EmbeddingBagNet::Train(rows, labels, config);
      const RowMajorNet ref = TrainRowMajor(rows, labels, config);

      ASSERT_EQ(net.w1t.rows(), d);
      ASSERT_EQ(net.w1t.cols(), hidden_units);
      for (int i = 0; i < hidden_units; ++i) {
        for (int j = 0; j < d; ++j) {
          ASSERT_EQ(Bits(net.w1t.At(j, i)), Bits(ref.w1.At(i, j)))
              << "w1[" << i << "][" << j << "]";
        }
        ASSERT_EQ(Bits(net.b1[i]), Bits(ref.b1[i])) << "b1[" << i << "]";
        ASSERT_EQ(Bits(net.w2[i]), Bits(ref.w2[i])) << "w2[" << i << "]";
      }
      ASSERT_EQ(Bits(net.b2), Bits(ref.b2));

      la::Vec sums;
      for (int k = 0; k < 20; ++k) {
        la::Vec x(d);
        for (double& v : x) v = rng.Uniform(-2.0, 2.0);
        EXPECT_EQ(Bits(net.Forward(x, &sums)), Bits(ForwardRowMajor(ref, x)));
      }
    }
  }
}

// The mlp network as it was first written: one la::Dot over a copy of
// each unit's row in training, b1[i] added after it. MlpNet must
// reproduce it bit for bit.
struct SerialMlp {
  la::Matrix w1;  // h x d
  la::Vec b1, w2;
  double b2 = 0.0;
};

SerialMlp TrainMlpSerial(const std::vector<la::Vec>& rows,
                         const std::vector<int>& labels,
                         const MlpConfig& config) {
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
    const double lr =
        config.learning_rate / (1.0 + 0.05 * static_cast<double>(epoch));
    for (int idx : order) {
      const la::Vec& x = rows[idx];
      for (int i = 0; i < h; ++i) {
        hidden[i] = std::tanh(
            la::Dot(la::Vec(w1.Row(i), w1.Row(i) + d), x) + b1[i]);
      }
      const double p = la::Sigmoid(la::Dot(w2, hidden) + b2);
      const double err = p - labels[idx];
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
  return {std::move(w1), std::move(b1), std::move(w2), b2};
}

double ForwardSerialMlp(const SerialMlp& net, const la::Vec& x) {
  double z = net.b2;
  for (int i = 0; i < net.w1.rows(); ++i) {
    const double* row = net.w1.Row(i);
    double s = net.b1[i];
    for (int j = 0; j < net.w1.cols(); ++j) s += row[j] * x[j];
    z += net.w2[i] * std::tanh(s);
  }
  return la::Sigmoid(z);
}

TEST(MlpNetTest, BitIdenticalToSerialLoops) {
  // 1, 5 and 16 (the default) hidden units cover the interleaved groups of
  // four and the remainder; d = 13 is not a multiple of any vector width.
  for (uint64_t seed : {1ULL, 19ULL, 4242ULL}) {
    for (int hidden_units : {1, 5, 16}) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " hidden_units=" + std::to_string(hidden_units));
      Rng rng(seed * 17 + 3);
      const int d = 13;
      std::vector<la::Vec> rows(70, la::Vec(d));
      std::vector<int> labels;
      for (la::Vec& row : rows) {
        for (double& v : row) v = rng.Uniform(-1.5, 1.5);
        labels.push_back(row[0] - row[2] > 0.0 ? 1 : 0);
      }
      MlpConfig config;
      config.hidden_units = hidden_units;
      config.epochs = 15;
      config.seed = seed;
      const MlpNet net = MlpNet::Train(rows, labels, config);
      const SerialMlp ref = TrainMlpSerial(rows, labels, config);

      ASSERT_EQ(net.w1.rows(), hidden_units);
      ASSERT_EQ(net.w1.cols(), d);
      for (int i = 0; i < hidden_units; ++i) {
        for (int j = 0; j < d; ++j) {
          ASSERT_EQ(Bits(net.w1.At(i, j)), Bits(ref.w1.At(i, j)))
              << "w1[" << i << "][" << j << "]";
        }
        ASSERT_EQ(Bits(net.b1[i]), Bits(ref.b1[i])) << "b1[" << i << "]";
        ASSERT_EQ(Bits(net.w2[i]), Bits(ref.w2[i])) << "w2[" << i << "]";
      }
      ASSERT_EQ(Bits(net.b2), Bits(ref.b2));

      for (int k = 0; k < 20; ++k) {
        la::Vec x(d);
        for (double& v : x) v = rng.Uniform(-2.0, 2.0);
        EXPECT_EQ(Bits(net.Forward(x)), Bits(ForwardSerialMlp(ref, x)));
      }
    }
  }
}

}  // namespace
}  // namespace crew
