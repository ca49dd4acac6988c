#include "crew/eval/experiment.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "crew/data/generator.h"
#include "crew/eval/runner.h"
#include "crew/explain/lime.h"
#include "crew/explain/random_explainer.h"
#include "test_util.h"

namespace crew {
namespace {

using testing::MakePair;
using testing::TokenWeightMatcher;

Dataset SmallDataset() {
  GeneratorConfig config;
  config.num_matches = 40;
  config.num_nonmatches = 40;
  config.seed = 3;
  auto d = GenerateDataset(config);
  CREW_CHECK(d.ok());
  return std::move(d.value());
}

TEST(ExplainerSuiteTest, CanonicalLineup) {
  ExplainerSuiteConfig config;
  config.num_samples = 16;
  const auto suite = BuildExplainerSuite(nullptr, SmallDataset(), config);
  std::vector<std::string> names;
  for (const auto& e : suite) names.push_back(e->Name());
  EXPECT_EQ(names,
            (std::vector<std::string>{"lime", "mojito_drop", "mojito_copy",
                                      "landmark", "lemon", "kernel_shap",
                                      "certa", "random", "wym", "crew"}));
}

TEST(ExplainerSuiteTest, RandomCanBeExcluded) {
  ExplainerSuiteConfig config;
  config.include_random = false;
  const auto suite = BuildExplainerSuite(nullptr, SmallDataset(), config);
  for (const auto& e : suite) EXPECT_NE(e->Name(), "random");
  EXPECT_EQ(suite.size(), 9u);
}

TEST(SelectExplainInstancesTest, BalancedByPrediction) {
  const Dataset dataset = SmallDataset();
  // Matcher that follows the gold label via token overlap is overkill;
  // instead use an oracle that calls everything a match, then one that
  // splits.
  TokenWeightMatcher all_match({}, /*bias=*/5.0);
  Rng rng(1);
  const auto idx = SelectExplainInstances(all_match, dataset, 10, rng);
  EXPECT_EQ(idx.size(), 10u);
  std::set<int> unique(idx.begin(), idx.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(SelectExplainInstancesTest, CapsAtDatasetSize) {
  const Dataset dataset = SmallDataset();
  TokenWeightMatcher matcher({}, 5.0);
  Rng rng(2);
  const auto idx = SelectExplainInstances(matcher, dataset, 10000, rng);
  EXPECT_EQ(static_cast<int>(idx.size()), dataset.size());
}

TEST(SelectExplainInstancesTest, BackfillsFromMatchesWhenNonmatchesRunShort) {
  // All pairs predicted match: the non-match side is empty, so after the
  // balanced half-draw the match side must top the selection up to n (the
  // historical implementation only backfilled in one direction and could
  // silently return fewer than n here).
  const Dataset dataset = SmallDataset();
  TokenWeightMatcher all_match({}, /*bias=*/5.0);
  Rng rng(3);
  const auto idx = SelectExplainInstances(all_match, dataset, 12, rng);
  EXPECT_EQ(idx.size(), 12u);
  std::set<int> unique(idx.begin(), idx.end());
  EXPECT_EQ(unique.size(), 12u);
}

TEST(SelectExplainInstancesTest, BackfillsFromNonmatchesWhenMatchesRunShort) {
  const Dataset dataset = SmallDataset();
  TokenWeightMatcher all_nonmatch({}, /*bias=*/-5.0);
  Rng rng(3);
  const auto idx = SelectExplainInstances(all_nonmatch, dataset, 12, rng);
  EXPECT_EQ(idx.size(), 12u);
  std::set<int> unique(idx.begin(), idx.end());
  EXPECT_EQ(unique.size(), 12u);
}

TEST(SelectExplainInstancesTest, BalancedWhenBothSidesAmple) {
  const Dataset dataset = SmallDataset();
  // Real split: some pairs contain the decisive tokens, some do not.
  TokenWeightMatcher matcher({{"vortexa", 1.0}, {"lumenix", 0.7}}, -0.2);
  Rng rng(3);
  const int n = 8;
  const auto idx = SelectExplainInstances(matcher, dataset, n, rng);
  ASSERT_EQ(idx.size(), static_cast<size_t>(n));
  int matches = 0;
  for (int i : idx) {
    if (matcher.Predict(dataset.pair(i)) == 1) ++matches;
  }
  // When both prediction classes have at least n/2 members the draw is
  // exactly half and half.
  EXPECT_EQ(matches, n / 2);
}

TEST(ExplainAsUnitsTest, CrewYieldsClustersOthersSingletons) {
  const Dataset support = SmallDataset();
  ExplainerSuiteConfig config;
  config.num_samples = 32;
  const auto suite = BuildExplainerSuite(nullptr, support, config);
  TokenWeightMatcher matcher({{"anchor", 2.0}});
  // "anchor" and "b" occur on both sides, so WYM can form paired units.
  const RecordPair pair = MakePair("anchor a b c", "d e", "anchor b h", "i");
  for (const auto& explainer : suite) {
    auto result = ExplainAsUnitsEx(*explainer, matcher, pair, 4);
    ASSERT_TRUE(result.ok()) << explainer->Name();
    const auto& words = result->words;
    const auto& units = result->units;
    if (explainer->Name() == "crew" || explainer->Name() == "wym") {
      EXPECT_LT(units.size(), words.attributions.size())
          << explainer->Name();
    } else {
      EXPECT_EQ(units.size(), words.attributions.size());
      for (const auto& u : units) EXPECT_EQ(u.member_indices.size(), 1u);
    }
  }
}

TEST(EvaluateExplainerTest, AggregatesAreFinite) {
  const Dataset dataset = SmallDataset();
  TokenWeightMatcher matcher({{"vortexa", 1.0}, {"lumenix", 0.7}}, -0.2);
  ExplainerSuiteConfig config;
  config.num_samples = 32;
  const auto suite = BuildExplainerSuite(nullptr, dataset, config);
  Rng rng(5);
  const auto idx = SelectExplainInstances(matcher, dataset, 4, rng);
  ASSERT_FALSE(idx.empty());
  for (const auto& explainer : suite) {
    auto records =
        EvaluateInstances(*explainer, matcher, dataset, idx, nullptr, 9);
    ASSERT_TRUE(records.ok()) << explainer->Name();
    const auto agg = ReduceInstances(explainer->Name(), *records);
    EXPECT_EQ(agg.instances, static_cast<int>(idx.size()));
    EXPECT_GE(agg.total_units, 1.0);
    EXPECT_TRUE(std::isfinite(agg.aopc));
    EXPECT_TRUE(std::isfinite(agg.comprehensiveness_at_1));
    EXPECT_GE(agg.decision_flip_rate, 0.0);
    EXPECT_LE(agg.decision_flip_rate, 1.0);
  }
}

TEST(EvaluateExplainerTest, OracleBeatsRandomOnAopc) {
  // On the oracle matcher, LIME's AOPC must dominate the random baseline.
  const Dataset dataset = SmallDataset();
  TokenWeightMatcher matcher({{"vortexa", 2.0}, {"qorvex", 1.5}}, -0.5);
  Rng rng(6);
  const auto idx = SelectExplainInstances(matcher, dataset, 8, rng);
  LimeConfig lime_config;
  lime_config.perturbation.num_samples = 128;
  LimeExplainer lime(lime_config);
  RandomExplainer random;
  auto lime_records =
      EvaluateInstances(lime, matcher, dataset, idx, nullptr, 11);
  auto random_records =
      EvaluateInstances(random, matcher, dataset, idx, nullptr, 11);
  ASSERT_TRUE(lime_records.ok() && random_records.ok());
  EXPECT_GE(ReduceInstances("lime", *lime_records).aopc,
            ReduceInstances("random", *random_records).aopc);
}

}  // namespace
}  // namespace crew
