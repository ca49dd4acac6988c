// End-to-end integration: synthetic benchmark -> embeddings -> matcher ->
// full explainer suite -> unit metrics. Exercises every library together
// the way the bench binaries do.

#include <gtest/gtest.h>

#include <algorithm>

#include "crew/data/benchmark_suite.h"
#include "crew/data/csv.h"
#include "crew/eval/experiment.h"
#include "crew/eval/runner.h"
#include "crew/eval/stability.h"

namespace crew {
namespace {

struct PipelineFixture {
  Dataset dataset;
  TrainedPipeline pipeline;

  static const PipelineFixture& Get() {
    static const PipelineFixture* fixture = [] {
      auto f = new PipelineFixture();
      auto d = GenerateByName("products-structured", 7, 120, 160);
      CREW_CHECK(d.ok());
      f->dataset = std::move(d.value());
      auto p = TrainPipeline(f->dataset, MatcherKind::kMlp, 0.7, 7);
      CREW_CHECK(p.ok());
      f->pipeline = std::move(p.value());
      return f;
    }();
    return *fixture;
  }
};

TEST(IntegrationTest, MatcherIsCompetent) {
  const auto& f = PipelineFixture::Get();
  EXPECT_GT(f.pipeline.test_metrics.F1(), 0.8);
}

TEST(IntegrationTest, FullSuiteExplainsRealPrediction) {
  const auto& f = PipelineFixture::Get();
  ExplainerSuiteConfig config;
  config.num_samples = 64;
  const auto suite = BuildExplainerSuite(f.pipeline.embeddings,
                                         f.pipeline.train, config);
  const RecordPair& pair = f.pipeline.test.pair(0);
  for (const auto& explainer : suite) {
    auto units = ExplainAsUnitsEx(*explainer, *f.pipeline.matcher, pair, 13);
    ASSERT_TRUE(units.ok()) << explainer->Name();
    EXPECT_FALSE(units->units.empty()) << explainer->Name();
  }
}

TEST(IntegrationTest, CrewProducesFewerUnitsThanWords) {
  const auto& f = PipelineFixture::Get();
  CrewConfig config;
  config.importance.perturbation.num_samples = 64;
  CrewExplainer crew(f.pipeline.embeddings, config);
  int fewer = 0, total = 0;
  for (int i = 0; i < std::min(5, f.pipeline.test.size()); ++i) {
    auto e = crew.ExplainClusters(*f.pipeline.matcher,
                                  f.pipeline.test.pair(i), 17 + i);
    ASSERT_TRUE(e.ok());
    ++total;
    if (static_cast<int>(e->units.size()) <
        static_cast<int>(e->words.attributions.size()) / 2) {
      ++fewer;
    }
  }
  // CREW must compress: at most max_clusters units vs dozens of words.
  EXPECT_EQ(fewer, total);
}

TEST(IntegrationTest, CrewFaithfulnessBeatsRandom) {
  const auto& f = PipelineFixture::Get();
  const Matcher& matcher = *f.pipeline.matcher;
  Rng rng(19);
  const auto idx = SelectExplainInstances(matcher, f.pipeline.test, 6, rng);
  ASSERT_FALSE(idx.empty());
  ExplainerSuiteConfig config;
  config.num_samples = 64;
  const auto suite = BuildExplainerSuite(f.pipeline.embeddings,
                                         f.pipeline.train, config);
  double crew_aopc = 0.0, random_aopc = 0.0;
  for (const auto& explainer : suite) {
    auto records = EvaluateInstances(*explainer, matcher, f.pipeline.test,
                                     idx, f.pipeline.embeddings.get(), 23);
    ASSERT_TRUE(records.ok()) << explainer->Name();
    const double aopc = ReduceInstances(explainer->Name(), *records).aopc;
    if (explainer->Name() == "crew") crew_aopc = aopc;
    if (explainer->Name() == "random") random_aopc = aopc;
  }
  EXPECT_GT(crew_aopc, random_aopc);
}

TEST(IntegrationTest, DatasetCsvRoundTripKeepsExplanations) {
  const auto& f = PipelineFixture::Get();
  auto reloaded = LoadDatasetCsv(DatasetToCsv(f.pipeline.test));
  ASSERT_TRUE(reloaded.ok());
  ASSERT_EQ(reloaded->size(), f.pipeline.test.size());
  // Same matcher scores on reloaded pairs: serialization is lossless.
  for (int i = 0; i < std::min(10, reloaded->size()); ++i) {
    EXPECT_DOUBLE_EQ(
        f.pipeline.matcher->PredictProba(reloaded->pair(i)),
        f.pipeline.matcher->PredictProba(f.pipeline.test.pair(i)));
  }
}

TEST(IntegrationTest, StabilityAcrossSeedsIsReasonable) {
  const auto& f = PipelineFixture::Get();
  CrewConfig config;
  config.importance.perturbation.num_samples = 64;
  CrewExplainer crew(f.pipeline.embeddings, config);
  auto stability = ExplainerStability(crew, *f.pipeline.matcher,
                                      f.pipeline.test.pair(0), {1, 2, 3}, 5);
  ASSERT_TRUE(stability.ok());
  EXPECT_GE(*stability, 0.0);
  EXPECT_LE(*stability, 1.0);
}

}  // namespace
}  // namespace crew
