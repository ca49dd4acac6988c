#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "crew/common/rng.h"
#include "crew/embed/sgns.h"
#include "crew/la/vector_ops.h"

namespace crew {
namespace {

// Synthetic corpus with two clearly separated topics: words inside a topic
// co-occur, words across topics never do.
Corpus TwoTopicCorpus(int sentences_per_topic = 200) {
  Corpus corpus;
  const std::vector<std::vector<std::string>> topics = {
      {"router", "switch", "network", "ethernet", "wifi"},
      {"espresso", "coffee", "grinder", "beans", "crema"},
  };
  Rng rng(77);
  for (int t = 0; t < 2; ++t) {
    for (int s = 0; s < sentences_per_topic; ++s) {
      std::vector<std::string> sentence;
      for (int w = 0; w < 6; ++w) {
        sentence.push_back(
            topics[t][rng.UniformInt(static_cast<int>(topics[t].size()))]);
      }
      corpus.push_back(std::move(sentence));
    }
  }
  return corpus;
}

template <typename TrainFn>
void ExpectTopicStructure(TrainFn train) {
  auto store_or = train(TwoTopicCorpus());
  ASSERT_TRUE(store_or.ok()) << store_or.status().ToString();
  const EmbeddingStore& store = store_or.value();
  // Within-topic similarity must dominate across-topic similarity.
  const double within = (store.Similarity("router", "switch") +
                         store.Similarity("espresso", "coffee")) /
                        2.0;
  const double across = (store.Similarity("router", "espresso") +
                         store.Similarity("switch", "beans")) /
                        2.0;
  EXPECT_GT(within, across + 0.2);
}

TEST(SgnsEmbeddingTest, SeparatesTopics) {
  ExpectTopicStructure([](const Corpus& corpus) {
    SgnsConfig config;
    config.dim = 8;
    config.epochs = 5;
    // The synthetic corpus has 10 words of frequency ~0.1 each; word2vec's
    // frequent-word subsampling would discard ~90% of it. Real corpora have
    // Zipf tails; here we disable it to test the learner itself.
    config.subsample_threshold = 0.0;
    return TrainSgnsEmbeddings(corpus, config);
  });
}

TEST(SgnsEmbeddingTest, SubsamplingDropsFrequentTokensOnly) {
  // With subsampling on, ultra-frequent words still get vectors (they are
  // in the vocabulary) — the mechanism only thins their training windows.
  Corpus corpus = TwoTopicCorpus(50);
  SgnsConfig config;
  config.dim = 4;
  config.epochs = 1;
  config.subsample_threshold = 1e-3;
  auto store = TrainSgnsEmbeddings(corpus, config);
  ASSERT_TRUE(store.ok());
  EXPECT_TRUE(store->Contains("router"));
  EXPECT_TRUE(store->Contains("coffee"));
}

TEST(SgnsEmbeddingTest, DeterministicGivenSeed) {
  const Corpus corpus = TwoTopicCorpus(30);
  SgnsConfig config;
  config.dim = 4;
  config.epochs = 1;
  auto a = TrainSgnsEmbeddings(corpus, config);
  auto b = TrainSgnsEmbeddings(corpus, config);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_DOUBLE_EQ(a->Similarity("router", "wifi"),
                   b->Similarity("router", "wifi"));
}

// TrainSgnsEmbeddings as it was first written: one target at a time, each
// dot product right before its update, negatives drawn with UniformInt.
// The interleaved kernel must reproduce it bit for bit.
la::Matrix TrainSgnsSerial(const Corpus& corpus, const SgnsConfig& config,
                           Vocabulary* vocab_out) {
  Vocabulary full;
  for (const auto& sentence : corpus) {
    for (const auto& tok : sentence) full.Add(tok);
  }
  Vocabulary vocab = full.Pruned(config.min_count);
  const int v = vocab.size();
  const int d = config.dim;
  Rng rng(config.seed);
  std::vector<std::vector<int>> ids;
  int64_t corpus_tokens = 0;
  for (const auto& sentence : corpus) {
    std::vector<int> s;
    for (const auto& tok : sentence) {
      const int id = vocab.GetId(tok);
      if (id >= 0) s.push_back(id);
    }
    corpus_tokens += static_cast<int64_t>(s.size());
    if (!s.empty()) ids.push_back(std::move(s));
  }
  la::Matrix in(v, d), out(v, d);
  for (int r = 0; r < v; ++r) {
    for (int c = 0; c < d; ++c) in.At(r, c) = (rng.Uniform() - 0.5) / d;
  }
  const int table_size = 1 << 16;
  std::vector<double> weights(v);
  double total = 0.0;
  for (int i = 0; i < v; ++i) {
    weights[i] = std::pow(static_cast<double>(vocab.CountOf(i)), 0.75);
    total += weights[i];
  }
  std::vector<int> neg_table;
  int id = 0;
  double cum = weights[0] / total;
  for (int t = 0; t < table_size; ++t) {
    const double target = (t + 0.5) / table_size;
    while (cum < target && id + 1 < v) {
      ++id;
      cum += weights[id] / total;
    }
    neg_table.push_back(id);
  }
  std::vector<double> keep(v, 1.0);
  if (config.subsample_threshold > 0.0) {
    for (int i = 0; i < v; ++i) {
      const double f = static_cast<double>(vocab.CountOf(i)) /
                       static_cast<double>(vocab.TotalCount());
      if (f > config.subsample_threshold) {
        keep[i] = std::min(1.0, std::sqrt(config.subsample_threshold / f) +
                                    config.subsample_threshold / f);
      }
    }
  }
  const int64_t total_steps =
      static_cast<int64_t>(config.epochs) * corpus_tokens;
  int64_t step = 0;
  std::vector<double> grad_center(d);
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    for (const auto& sentence : ids) {
      std::vector<int> kept;
      for (int w : sentence) {
        if (keep[w] >= 1.0 || rng.Bernoulli(keep[w])) kept.push_back(w);
      }
      const int n = static_cast<int>(kept.size());
      for (int c = 0; c < n; ++c) {
        ++step;
        const double progress =
            static_cast<double>(step) / static_cast<double>(total_steps);
        const double lr =
            std::max(1e-4, config.learning_rate * (1.0 - progress));
        const int win = 1 + rng.UniformInt(config.window);
        const int lo = std::max(0, c - win);
        const int hi = std::min(n - 1, c + win);
        double* vin = in.Row(kept[c]);
        for (int t = lo; t <= hi; ++t) {
          if (t == c) continue;
          std::fill(grad_center.begin(), grad_center.end(), 0.0);
          for (int k = 0; k <= config.negative_samples; ++k) {
            int target;
            double label;
            if (k == 0) {
              target = kept[t];
              label = 1.0;
            } else {
              target =
                  neg_table[rng.UniformInt(static_cast<int>(neg_table.size()))];
              if (target == kept[t]) continue;
              label = 0.0;
            }
            double* vout = out.Row(target);
            double dot = 0.0;
            for (int x = 0; x < d; ++x) dot += vin[x] * vout[x];
            const double g = (la::Sigmoid(dot) - label) * lr;
            for (int x = 0; x < d; ++x) {
              grad_center[x] += g * vout[x];
              vout[x] -= g * vin[x];
            }
          }
          for (int x = 0; x < d; ++x) vin[x] -= grad_center[x];
        }
      }
    }
  }
  *vocab_out = std::move(vocab);
  return in;
}

// `sentences` sentences of 8 words over a `words`-word vocabulary, word i
// drawn with weight 1 / (i + 1) when `zipf`, uniformly otherwise.
Corpus SyntheticCorpus(int sentences, int words, bool zipf, uint64_t seed) {
  std::vector<double> weights(words, 1.0);
  if (zipf) {
    for (int i = 0; i < words; ++i) weights[i] = 1.0 / (i + 1);
  }
  Rng rng(seed);
  Corpus corpus;
  for (int s = 0; s < sentences; ++s) {
    std::vector<std::string> sentence;
    for (int w = 0; w < 8; ++w) {
      // Append instead of operator+: GCC 12's -Wrestrict false positive
      // (PR105651) under -O2, promoted to an error by -Werror.
      std::string word = "w";
      word += std::to_string(rng.Categorical(weights));
      sentence.push_back(std::move(word));
    }
    corpus.push_back(std::move(sentence));
  }
  return corpus;
}

TEST(SgnsEmbeddingTest, BitIdenticalToSerialLoop) {
  struct NamedCorpus {
    const char* name;
    Corpus corpus;
  };
  // Zipf: frequent words repeat among the negatives, and subsampling
  // drops some of them. Wide: 1500 equally frequent words, so even 40
  // negatives are often distinct. Tiny: three words, so at most two
  // distinct negatives exist and every step with two or more negatives
  // repeats a target, which takes the serial fallback.
  const std::vector<NamedCorpus> corpora = {
      {"zipf", SyntheticCorpus(150, 120, true, 5)},
      {"wide", SyntheticCorpus(150, 1500, false, 6)},
      {"tiny", SyntheticCorpus(40, 3, false, 7)},
  };
  for (const NamedCorpus& named : corpora) {
    for (uint64_t seed : {13ULL, 101ULL, 4242ULL}) {
      for (int dim : {1, 16, 32, 33}) {
        for (int negatives : {0, 1, 5, 40}) {
          std::string where = named.name;
          where += " seed=";
          where += std::to_string(seed);
          where += " dim=";
          where += std::to_string(dim);
          where += " negatives=";
          where += std::to_string(negatives);
          SCOPED_TRACE(where);
          SgnsConfig config;
          config.dim = dim;
          config.epochs = 2;
          config.min_count = 1;
          config.negative_samples = negatives;
          config.seed = seed;
          auto got = TrainSgnsVectors(named.corpus, config);
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          Vocabulary vocab;
          const la::Matrix ref = TrainSgnsSerial(named.corpus, config, &vocab);
          ASSERT_EQ(got->vocab.size(), vocab.size());
          ASSERT_EQ(got->in.rows(), vocab.size());
          ASSERT_EQ(got->in.cols(), dim);
          for (int i = 0; i < vocab.size(); ++i) {
            ASSERT_EQ(got->vocab.TokenOf(i), vocab.TokenOf(i));
            for (int x = 0; x < dim; ++x) {
              ASSERT_EQ(std::bit_cast<uint64_t>(got->in.At(i, x)),
                        std::bit_cast<uint64_t>(ref.At(i, x)))
                  << vocab.TokenOf(i) << "[" << x << "]";
            }
          }
        }
      }
    }
  }
}

TEST(EmbeddingTrainingTest, RejectsBadConfigAndEmptyCorpus) {
  SgnsConfig sgns;
  sgns.dim = -1;
  EXPECT_FALSE(TrainSgnsEmbeddings({}, sgns).ok());
  sgns.dim = 4;
  EXPECT_FALSE(TrainSgnsEmbeddings({}, sgns).ok());  // empty corpus
}

TEST(EmbeddingStoreTest, LookupAndOov) {
  Vocabulary vocab;
  vocab.Add("x");
  vocab.Add("y");
  la::Matrix vectors(2, 2);
  vectors.At(0, 0) = 3.0;  // normalized to (1, 0)
  vectors.At(1, 1) = 2.0;  // normalized to (0, 1)
  EmbeddingStore store(std::move(vocab), std::move(vectors));
  EXPECT_EQ(store.dim(), 2);
  EXPECT_EQ(store.size(), 2);
  EXPECT_NEAR(store.Lookup("x")[0], 1.0, 1e-12);
  EXPECT_EQ(store.Lookup("zzz"), (la::Vec{0.0, 0.0}));
  EXPECT_NEAR(store.Similarity("x", "y"), 0.0, 1e-12);
  EXPECT_NEAR(store.Similarity("x", "x"), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(store.Similarity("x", "zzz"), 0.0);
}

TEST(EmbeddingStoreTest, MeanVectorSkipsOov) {
  Vocabulary vocab;
  vocab.Add("x");
  vocab.Add("y");
  la::Matrix vectors(2, 2);
  vectors.At(0, 0) = 1.0;
  vectors.At(1, 1) = 1.0;
  EmbeddingStore store(std::move(vocab), std::move(vectors));
  const la::Vec mean = store.MeanVector({"x", "y", "unknown"});
  EXPECT_NEAR(mean[0], 0.5, 1e-12);
  EXPECT_NEAR(mean[1], 0.5, 1e-12);
  EXPECT_EQ(store.MeanVector({"nope"}), (la::Vec{0.0, 0.0}));
}

TEST(EmbeddingStoreTest, NearestNeighbors) {
  Vocabulary vocab;
  vocab.Add("a");
  vocab.Add("b");
  vocab.Add("c");
  la::Matrix vectors(3, 2);
  vectors.At(0, 0) = 1.0;                          // a -> (1,0)
  vectors.At(1, 0) = 0.9;
  vectors.At(1, 1) = 0.1;                          // b close to a
  vectors.At(2, 1) = 1.0;                          // c orthogonal
  EmbeddingStore store(std::move(vocab), std::move(vectors));
  const auto nn = store.NearestNeighbors("a", 2);
  ASSERT_EQ(nn.size(), 2u);
  EXPECT_EQ(nn[0].first, "b");
  EXPECT_EQ(nn[1].first, "c");
  EXPECT_GT(nn[0].second, nn[1].second);
  EXPECT_TRUE(store.NearestNeighbors("zzz", 2).empty());
}

}  // namespace
}  // namespace crew
