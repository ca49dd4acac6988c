#include "crew/model/features.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "crew/common/rng.h"
#include "crew/common/thread_pool.h"
#include "crew/explain/token_view.h"

namespace crew {
namespace {

Schema MakeSchema() {
  Schema s;
  s.AddAttribute("name", AttributeType::kText);
  s.AddAttribute("price", AttributeType::kNumeric);
  return s;
}

RecordPair MakePair(const std::string& lname, const std::string& lprice,
                    const std::string& rname, const std::string& rprice) {
  RecordPair p;
  p.left.values = {lname, lprice};
  p.right.values = {rname, rprice};
  return p;
}

TEST(FeaturesTest, CountMatchesNames) {
  PairFeaturizer f(MakeSchema(), nullptr);
  EXPECT_EQ(f.FeatureCount(), 2 * 5 + 3);
  EXPECT_EQ(static_cast<int>(f.FeatureNames().size()), f.FeatureCount());
  EXPECT_EQ(f.FeatureNames()[0], "name_jaccard");
  EXPECT_EQ(f.FeatureNames().back(), "log_length_ratio");
}

TEST(FeaturesTest, IdenticalPairScoresHigh) {
  PairFeaturizer f(MakeSchema(), nullptr);
  const auto x = f.Extract(
      MakePair("acme router", "99.50", "acme router", "99.50"));
  // jaccard, overlap, monge-elkan for "name" are all 1.
  EXPECT_DOUBLE_EQ(x[0], 1.0);
  EXPECT_DOUBLE_EQ(x[1], 1.0);
  EXPECT_DOUBLE_EQ(x[2], 1.0);
}

TEST(FeaturesTest, DisjointPairScoresLow) {
  PairFeaturizer f(MakeSchema(), nullptr);
  const auto x =
      f.Extract(MakePair("acme router", "10", "zeta blender", "900"));
  EXPECT_DOUBLE_EQ(x[0], 0.0);  // name jaccard
  EXPECT_LT(x[5 + 4], 0.1);     // price typed sim (numeric, far apart)
}

TEST(FeaturesTest, NumericAttributeUsesRelativeSimilarity) {
  PairFeaturizer f(MakeSchema(), nullptr);
  const auto near = f.Extract(MakePair("x", "100", "x", "99"));
  const auto far = f.Extract(MakePair("x", "100", "x", "10"));
  const int price_typed = 5 + 4;
  EXPECT_GT(near[price_typed], far[price_typed]);
}

TEST(FeaturesTest, TokenRemovalChangesFeatures) {
  // The property perturbation explainers rely on.
  PairFeaturizer f(MakeSchema(), nullptr);
  const auto full =
      f.Extract(MakePair("acme super router", "5", "acme super router", "5"));
  const auto dropped =
      f.Extract(MakePair("acme router", "5", "acme super router", "5"));
  EXPECT_NE(full[0], dropped[0]);
}

TEST(FeaturesTest, EmbeddingFeatureZeroWithoutStore) {
  PairFeaturizer f(MakeSchema(), nullptr);
  const auto x = f.Extract(MakePair("a", "1", "a", "1"));
  EXPECT_DOUBLE_EQ(x[3], 0.0);  // name_emb_cosine
}

// Random unit-free vectors for `tokens`; different seeds give different
// stores over the same vocabulary.
std::shared_ptr<const EmbeddingStore> MakeStore(
    const std::vector<std::string>& tokens, uint64_t seed) {
  Vocabulary vocab;
  for (const auto& t : tokens) vocab.Add(t);
  Rng rng(seed);
  la::Matrix vectors(vocab.size(), 4);
  for (int r = 0; r < vectors.rows(); ++r) {
    for (int c = 0; c < vectors.cols(); ++c) {
      vectors.At(r, c) = rng.Uniform(-1.0, 1.0);
    }
  }
  return std::make_shared<const EmbeddingStore>(std::move(vocab),
                                                std::move(vectors));
}

// `count` keep-mask variants of `pair`, the shape of one scoring block.
std::vector<RecordPair> PerturbationBlock(const Schema& schema,
                                          const RecordPair& pair, int count,
                                          uint64_t seed) {
  const PairTokenView view(schema, Tokenizer(), pair);
  Rng rng(seed);
  std::vector<RecordPair> block(count);
  std::vector<bool> keep(view.size());
  for (auto& variant : block) {
    for (int i = 0; i < view.size(); ++i) keep[i] = rng.Bernoulli(0.7);
    view.MaterializeInto(keep, &variant);
  }
  return block;
}

// The reference features: `pair` through a scratch no call has used yet.
la::Vec FreshExtract(const PairFeaturizer& f, const RecordPair& pair) {
  PairFeaturizer::Scratch fresh;
  la::Vec row;
  f.ExtractInto(pair, &fresh, &row);
  return row;
}

void ExpectSameBits(const PairFeaturizer& f, const la::Vec& row,
                    const la::Vec& expected) {
  ASSERT_EQ(row.size(), expected.size());
  for (size_t i = 0; i < row.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(row[i]),
              std::bit_cast<uint64_t>(expected[i]))
        << f.FeatureNames()[i];
  }
}

// Features through one shared scratch must equal a fresh scratch's.
void ExpectSharedScratchMatchesFresh(const PairFeaturizer& f,
                                     const RecordPair& pair,
                                     PairFeaturizer::Scratch* scratch) {
  la::Vec row;
  f.ExtractInto(pair, scratch, &row);
  ExpectSameBits(f, row, FreshExtract(f, pair));
}

Schema ProductSchema() {
  Schema s;
  s.AddAttribute("title", AttributeType::kText);
  s.AddAttribute("brand", AttributeType::kCategorical);
  s.AddAttribute("description", AttributeType::kText);
  s.AddAttribute("price", AttributeType::kNumeric);
  return s;
}

RecordPair ProductPair() {
  RecordPair p;
  p.left.values = {
      "acme wireless router ax3000 dual band black",
      "acme",
      "fast dual band wifi 6 router with four gigabit ports usb 3 and "
      "beamforming for large homes and small offices",
      "129.99"};
  p.right.values = {"acme ax3000 wifi router blk", "acme networks",
                    "wifi 6 router dual band four ports beamforming", "nan"};
  return p;
}

TEST(FeaturesMemoTest, BlockLargerThanMemoMatchesPerPairExtract) {
  const Schema schema = ProductSchema();
  const RecordPair pair = ProductPair();
  const PairFeaturizer f(
      schema, MakeStore({"acme", "router", "wifi", "dual", "band"}, 1));
  // 400 variants hold far more distinct attribute values than the memo
  // keeps, so entries are evicted and refilled mid-block.
  PairFeaturizer::Scratch scratch;
  for (const RecordPair& variant : PerturbationBlock(schema, pair, 400, 5)) {
    ExpectSharedScratchMatchesFresh(f, variant, &scratch);
  }
}

TEST(FeaturesMemoTest, SchemaWiderThanMemoMatchesPerPairExtract) {
  Schema schema;
  RecordPair pair;
  // Appends instead of operator+: avoids GCC 12's -Wrestrict false
  // positive (PR105651) under -O2, promoted to an error by -Werror.
  for (int a = 0; a < 80; ++a) {
    std::string name = "a", left = "tok", right = "tok";
    name += std::to_string(a);
    left += std::to_string(a % 7);
    left += " x y";
    right += std::to_string(a % 5);
    right += " y z";
    schema.AddAttribute(name, AttributeType::kText);
    pair.left.values.push_back(std::move(left));
    pair.right.values.push_back(std::move(right));
  }
  const PairFeaturizer f(schema, nullptr);
  PairFeaturizer::Scratch scratch;
  for (const RecordPair& variant : PerturbationBlock(schema, pair, 20, 6)) {
    ExpectSharedScratchMatchesFresh(f, variant, &scratch);
  }
}

TEST(FeaturesMemoTest, ScratchSharedAcrossFeaturizersRebinds) {
  // Same first-attribute values under both featurizers, but different
  // embedding stores: a memo hit across the two would return the wrong
  // cosine. The third featurizer has no store at all.
  const std::vector<std::string> vocab = {"acme", "router", "wifi", "x"};
  const PairFeaturizer products(ProductSchema(), MakeStore(vocab, 1));
  const PairFeaturizer names(MakeSchema(), MakeStore(vocab, 2));
  const PairFeaturizer bare(MakeSchema(), nullptr);
  const auto product_block =
      PerturbationBlock(ProductSchema(), ProductPair(), 30, 7);
  const RecordPair name_pair = MakePair(ProductPair().left.values[0], "10",
                                  ProductPair().right.values[0], "12");
  const auto name_block = PerturbationBlock(MakeSchema(), name_pair, 30, 8);

  PairFeaturizer::Scratch scratch;
  for (int i = 0; i < 30; ++i) {
    ExpectSharedScratchMatchesFresh(products, product_block[i], &scratch);
    ExpectSharedScratchMatchesFresh(names, name_block[i], &scratch);
    ExpectSharedScratchMatchesFresh(bare, name_block[i], &scratch);
  }
}

// The thread's own scratch (Extract and two-argument ExtractInto) keeps
// its memo across calls. Every vector it returns must still equal a fresh
// scratch's, bit for bit, whatever ran on the thread before.

TEST(FeaturesThreadMemoTest, AlternatingFeaturizersMatchFreshScratch) {
  // The first attribute holds the same values under both featurizers, and
  // only `products` has an embedding store: a stale hit across the two
  // returns the wrong cosine.
  const PairFeaturizer products(
      ProductSchema(), MakeStore({"acme", "router", "wifi", "ax3000"}, 1));
  const PairFeaturizer bare(MakeSchema(), nullptr);
  const auto product_block =
      PerturbationBlock(ProductSchema(), ProductPair(), 40, 9);
  const RecordPair name_pair = MakePair(ProductPair().left.values[0], "10",
                                        ProductPair().right.values[0], "12");
  const auto name_block = PerturbationBlock(MakeSchema(), name_pair, 40, 10);
  la::Vec row;
  for (int i = 0; i < 40; ++i) {
    ExpectSameBits(products, products.Extract(product_block[i]),
                   FreshExtract(products, product_block[i]));
    bare.ExtractInto(name_block[i], &row);
    ExpectSameBits(bare, row, FreshExtract(bare, name_block[i]));
    products.ExtractInto(product_block[i], &row);
    ExpectSameBits(products, row, FreshExtract(products, product_block[i]));
  }
}

TEST(FeaturesThreadMemoTest, RebuiltFeaturizerMatchesFreshScratch) {
  // Each round builds a featurizer over the same schema and pairs but a
  // different embedding store, then destroys it; its memo entries must not
  // serve the next one.
  const auto block = PerturbationBlock(ProductSchema(), ProductPair(), 30, 11);
  for (uint64_t round = 1; round <= 4; ++round) {
    auto f = std::make_unique<PairFeaturizer>(
        ProductSchema(), MakeStore({"acme", "router", "wifi", "dual"}, round));
    for (const RecordPair& variant : block) {
      ExpectSameBits(*f, f->Extract(variant), FreshExtract(*f, variant));
    }
  }
}

TEST(FeaturesThreadMemoTest, MixedSingleAndBatchCallsMatchFreshScratch) {
  // A matcher featurizes a batch as consecutive ExtractInto calls into one
  // row, and a single pair through Extract. Interleave both over variants
  // of one pair in eval-shaped call sizes. In the second case, a dropped
  // "acme" leaves the text attribute holding the values the numeric one
  // holds in other variants, so an entry keyed without its attribute
  // serves the wrong typed similarity.
  struct Case {
    PairFeaturizer featurizer;
    RecordPair pair;
  };
  const std::vector<std::string> vocab = {"acme", "router", "wifi", "10"};
  const Case cases[] = {
      {PairFeaturizer(ProductSchema(), MakeStore(vocab, 3)), ProductPair()},
      {PairFeaturizer(MakeSchema(), MakeStore(vocab, 4)),
       MakePair("acme 10", "10", "12", "12")},
  };
  for (const Case& c : cases) {
    const PairFeaturizer& f = c.featurizer;
    const auto block = PerturbationBlock(f.schema(), c.pair, 64, 12);
    size_t next = 0;
    la::Vec row;
    for (int round = 0; round < 12; ++round) {
      for (const int size : {64, 1, 5, 5, 1}) {
        for (int i = 0; i < size; ++i) {
          const RecordPair& variant = block[next++ % block.size()];
          f.ExtractInto(variant, &row);
          ExpectSameBits(f, row, FreshExtract(f, variant));
        }
        const RecordPair& single = block[next % block.size()];
        ExpectSameBits(f, f.Extract(single), FreshExtract(f, single));
        ExpectSameBits(f, f.Extract(c.pair), FreshExtract(f, c.pair));
      }
    }
  }
}

TEST(FeaturesThreadMemoTest, ParallelForGivesIdenticalBitsAtOneAndFourThreads) {
  // Each pool thread featurizes its chunk through its own scratch, which
  // alternates between two featurizers.
  const PairFeaturizer products(
      ProductSchema(), MakeStore({"acme", "router", "wifi", "band"}, 5));
  const PairFeaturizer names(MakeSchema(), nullptr);
  const auto product_block =
      PerturbationBlock(ProductSchema(), ProductPair(), 120, 13);
  const auto name_block = PerturbationBlock(
      MakeSchema(), MakePair("acme router 10", "10", "router 12", "12"), 120,
      14);
  auto featurize = [&](ThreadPool* pool) {
    std::vector<la::Vec> rows(2 * product_block.size());
    ParallelFor(pool, static_cast<int>(rows.size()), [&](int begin, int end) {
      for (int i = begin; i < end; ++i) {
        if (i % 2 == 0) {
          products.ExtractInto(product_block[i / 2], &rows[i]);
        } else {
          names.ExtractInto(name_block[i / 2], &rows[i]);
        }
      }
    });
    return rows;
  };
  const std::vector<la::Vec> serial = featurize(nullptr);
  ThreadPool pool(4);
  const std::vector<la::Vec> parallel = featurize(&pool);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    const PairFeaturizer& f = i % 2 == 0 ? products : names;
    const RecordPair& pair =
        i % 2 == 0 ? product_block[i / 2] : name_block[i / 2];
    ExpectSameBits(f, parallel[i], serial[i]);
    ExpectSameBits(f, serial[i], FreshExtract(f, pair));
  }
}

TEST(FeatureScalerTest, StandardizesColumns) {
  FeatureScaler scaler;
  scaler.Fit({{0.0, 10.0}, {2.0, 10.0}, {4.0, 10.0}});
  const la::Vec t = scaler.Transform({2.0, 10.0});
  EXPECT_NEAR(t[0], 0.0, 1e-12);  // at the mean
  EXPECT_NEAR(t[1], 0.0, 1e-12);  // constant column passes through as 0
  const la::Vec hi = scaler.Transform({4.0, 10.0});
  EXPECT_GT(hi[0], 1.0);  // above mean, in stddev units
  EXPECT_TRUE(scaler.fitted());
}

TEST(FeatureScalerTest, UnfittedIsDetectable) {
  FeatureScaler scaler;
  EXPECT_FALSE(scaler.fitted());
}

}  // namespace
}  // namespace crew
