#include <algorithm>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "crew/data/generator.h"
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

}  // namespace
}  // namespace crew
