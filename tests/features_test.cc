#include "crew/model/features.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>

#include "crew/common/rng.h"
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

// Features through one shared scratch must equal fresh per-pair Extract.
void ExpectExtractIntoMatchesExtract(const PairFeaturizer& f,
                                     const RecordPair& pair,
                                     PairFeaturizer::Scratch* scratch) {
  la::Vec row;
  f.ExtractInto(pair, scratch, &row);
  const la::Vec expected = f.Extract(pair);
  ASSERT_EQ(row.size(), expected.size());
  for (size_t i = 0; i < row.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(row[i]),
              std::bit_cast<uint64_t>(expected[i]))
        << f.FeatureNames()[i];
  }
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
    ExpectExtractIntoMatchesExtract(f, variant, &scratch);
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
    ExpectExtractIntoMatchesExtract(f, variant, &scratch);
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
    ExpectExtractIntoMatchesExtract(products, product_block[i], &scratch);
    ExpectExtractIntoMatchesExtract(names, name_block[i], &scratch);
    ExpectExtractIntoMatchesExtract(bare, name_block[i], &scratch);
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
