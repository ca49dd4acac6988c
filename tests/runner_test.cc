// Tests for the instance-parallel evaluation runner: sharding must be
// invisible (bit-identical records and aggregates for any --threads
// value), EvaluateInstances + ReduceInstances must match the historical
// serial loop exactly, and the grid executor + JSON writer must produce
// well-formed structured results.

#include "crew/eval/runner.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "crew/common/metrics.h"
#include "crew/common/thread_pool.h"
#include "crew/common/trace.h"
#include "crew/data/generator.h"
#include "crew/eval/comprehensibility.h"
#include "crew/eval/faithfulness.h"
#include "crew/eval/sinks.h"
#include "crew/eval/streaming.h"
#include "crew/explain/lime.h"
#include "crew/explain/random_explainer.h"
#include "crew/model/trainer.h"
#include "test_util.h"

namespace crew {
namespace {

using testing::TokenWeightMatcher;

// Restores the process-wide scoring thread setting on scope exit so a
// failing test cannot leak a non-default setting into later tests.
class ScopedScoringThreads {
 public:
  explicit ScopedScoringThreads(int n) { SetScoringThreads(n); }
  ~ScopedScoringThreads() { SetScoringThreads(0); }
};

// Turns span recording on for one scope and drops whatever it recorded.
// Used by the determinism tests: tracing is observation-only, so results
// with it on must be bit-identical to results with it off.
class ScopedTracing {
 public:
  ScopedTracing() { SetTracingEnabled(true); }
  ~ScopedTracing() {
    SetTracingEnabled(false);
    ClearTraceEvents();
  }
};

Dataset SmallDataset() {
  GeneratorConfig config;
  config.num_matches = 40;
  config.num_nonmatches = 40;
  config.seed = 3;
  auto d = GenerateDataset(config);
  CREW_CHECK(d.ok());
  return std::move(d.value());
}

std::vector<int> SomeInstances(const Matcher& matcher, const Dataset& dataset,
                               int n) {
  Rng rng(5);
  return SelectExplainInstances(matcher, dataset, n, rng);
}

// Everything except runtime_ms (wall-clock, inherently nondeterministic).
void ExpectRecordsBitIdentical(const InstanceEvaluation& a,
                               const InstanceEvaluation& b) {
  EXPECT_EQ(a.index, b.index);
  EXPECT_EQ(a.evaluated, b.evaluated);
  EXPECT_EQ(a.predicted_match, b.predicted_match);
  EXPECT_EQ(a.aopc, b.aopc);
  EXPECT_EQ(a.comprehensiveness_at_1, b.comprehensiveness_at_1);
  EXPECT_EQ(a.comprehensiveness_at_3, b.comprehensiveness_at_3);
  EXPECT_EQ(a.sufficiency_at_1, b.sufficiency_at_1);
  EXPECT_EQ(a.sufficiency_at_3, b.sufficiency_at_3);
  EXPECT_EQ(a.comprehensiveness_budget, b.comprehensiveness_budget);
  EXPECT_EQ(a.decision_flip, b.decision_flip);
  EXPECT_EQ(a.insertion_aopc, b.insertion_aopc);
  EXPECT_EQ(a.flip_set.flipped, b.flip_set.flipped);
  EXPECT_EQ(a.flip_set.units_removed, b.flip_set.units_removed);
  EXPECT_EQ(a.flip_set.tokens_removed, b.flip_set.tokens_removed);
  EXPECT_EQ(a.curve, b.curve);
  EXPECT_EQ(a.total_units, b.total_units);
  EXPECT_EQ(a.effective_units, b.effective_units);
  EXPECT_EQ(a.words_per_unit, b.words_per_unit);
  EXPECT_EQ(a.semantic_coherence, b.semantic_coherence);
  EXPECT_EQ(a.attribute_purity, b.attribute_purity);
  EXPECT_EQ(a.has_cluster_stats, b.has_cluster_stats);
  EXPECT_EQ(a.cluster_coherence, b.cluster_coherence);
  EXPECT_EQ(a.cluster_silhouette, b.cluster_silhouette);
  EXPECT_EQ(a.chosen_k, b.chosen_k);
  EXPECT_EQ(a.stability, b.stability);
  EXPECT_EQ(a.surrogate_r2, b.surrogate_r2);
}

void ExpectAggregatesBitIdentical(const ExplainerAggregate& a,
                                  const ExplainerAggregate& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.instances, b.instances);
  EXPECT_EQ(a.aopc, b.aopc);
  EXPECT_EQ(a.comprehensiveness_at_1, b.comprehensiveness_at_1);
  EXPECT_EQ(a.comprehensiveness_at_3, b.comprehensiveness_at_3);
  EXPECT_EQ(a.sufficiency_at_1, b.sufficiency_at_1);
  EXPECT_EQ(a.sufficiency_at_3, b.sufficiency_at_3);
  EXPECT_EQ(a.comprehensiveness_budget5, b.comprehensiveness_budget5);
  EXPECT_EQ(a.decision_flip_rate, b.decision_flip_rate);
  EXPECT_EQ(a.insertion_aopc, b.insertion_aopc);
  EXPECT_EQ(a.flip_set_rate, b.flip_set_rate);
  EXPECT_EQ(a.flip_set_units, b.flip_set_units);
  EXPECT_EQ(a.flip_set_tokens, b.flip_set_tokens);
  EXPECT_EQ(a.total_units, b.total_units);
  EXPECT_EQ(a.effective_units, b.effective_units);
  EXPECT_EQ(a.words_per_unit, b.words_per_unit);
  EXPECT_EQ(a.semantic_coherence, b.semantic_coherence);
  EXPECT_EQ(a.attribute_purity, b.attribute_purity);
  EXPECT_EQ(a.cluster_coherence, b.cluster_coherence);
  EXPECT_EQ(a.cluster_silhouette, b.cluster_silhouette);
  EXPECT_EQ(a.mean_chosen_k, b.mean_chosen_k);
  EXPECT_EQ(a.stability, b.stability);
  EXPECT_EQ(a.surrogate_r2, b.surrogate_r2);
}

TEST(EvaluateInstancesTest, BitIdenticalAcrossThreadCounts) {
  const Dataset dataset = SmallDataset();
  TokenWeightMatcher matcher({{"vortexa", 1.0}, {"lumenix", 0.7}}, -0.2);
  const auto idx = SomeInstances(matcher, dataset, 6);
  ASSERT_FALSE(idx.empty());
  LimeConfig config;
  config.perturbation.num_samples = 48;
  LimeExplainer lime(config);
  InstanceEvalOptions options;
  options.curve_fractions = {0.0, 0.5, 1.0};

  std::vector<std::vector<InstanceEvaluation>> runs;
  for (int threads : {1, 2, 4}) {
    ScopedScoringThreads scoped(threads);
    auto records =
        EvaluateInstances(lime, matcher, dataset, idx, nullptr, 9, options);
    ASSERT_TRUE(records.ok()) << "threads=" << threads;
    ASSERT_EQ(records->size(), idx.size());
    runs.push_back(std::move(records.value()));
  }
  for (size_t run = 1; run < runs.size(); ++run) {
    for (size_t i = 0; i < runs[0].size(); ++i) {
      SCOPED_TRACE("run=" + std::to_string(run) +
                   " instance=" + std::to_string(i));
      ExpectRecordsBitIdentical(runs[0][i], runs[run][i]);
    }
    ExpectAggregatesBitIdentical(ReduceInstances("lime", runs[0]),
                                 ReduceInstances("lime", runs[run]));
  }
}

TEST(EvaluateInstancesTest, TracingDoesNotChangeResults) {
  // The observability contract: enabling span recording must not change a
  // single number, for any thread count. Baseline with tracing off, then
  // re-run at threads 1/2/4 with tracing on.
  const Dataset dataset = SmallDataset();
  TokenWeightMatcher matcher({{"vortexa", 1.0}, {"lumenix", 0.7}}, -0.2);
  const auto idx = SomeInstances(matcher, dataset, 4);
  ASSERT_FALSE(idx.empty());
  LimeConfig config;
  config.perturbation.num_samples = 32;
  LimeExplainer lime(config);

  auto baseline = EvaluateInstances(lime, matcher, dataset, idx, nullptr, 9);
  ASSERT_TRUE(baseline.ok());

  for (int threads : {1, 2, 4}) {
    ScopedScoringThreads scoped_threads(threads);
    ScopedTracing scoped_tracing;
    auto traced = EvaluateInstances(lime, matcher, dataset, idx, nullptr, 9);
    ASSERT_TRUE(traced.ok()) << "threads=" << threads;
    // Spans were actually recorded (the run is not silently untraced).
    EXPECT_FALSE(CollectTraceEvents().empty()) << "threads=" << threads;
    ASSERT_EQ(traced->size(), baseline->size());
    for (size_t i = 0; i < baseline->size(); ++i) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " instance=" + std::to_string(i));
      ExpectRecordsBitIdentical(baseline.value()[i], traced.value()[i]);
    }
  }
}

TEST(EvaluateInstancesTest, SeedDerivationIsPerIndexNotPerPosition) {
  // Shuffling the index list must not change any individual record: the
  // instance seed depends on the pair index, not the shard position.
  const Dataset dataset = SmallDataset();
  TokenWeightMatcher matcher({{"vortexa", 1.0}}, -0.1);
  const auto idx = SomeInstances(matcher, dataset, 5);
  ASSERT_GE(idx.size(), 2u);
  std::vector<int> reversed(idx.rbegin(), idx.rend());
  LimeConfig config;
  config.perturbation.num_samples = 32;
  LimeExplainer lime(config);
  auto forward = EvaluateInstances(lime, matcher, dataset, idx, nullptr, 9);
  auto backward =
      EvaluateInstances(lime, matcher, dataset, reversed, nullptr, 9);
  ASSERT_TRUE(forward.ok() && backward.ok());
  for (size_t i = 0; i < idx.size(); ++i) {
    SCOPED_TRACE("i=" + std::to_string(i));
    ExpectRecordsBitIdentical(forward.value()[i],
                              backward.value()[idx.size() - 1 - i]);
  }
}

// RandomExplainer behind a cost that depends on the pair index, counting
// how often each index is explained. EvaluateInstance seeds an instance
// with seed ^ (index << 20), so for a base seed below 2^20 the index is
// seed >> 20. Indices in `failing` return an error instead; the first of
// them waits (bounded) until a later one has failed, so on more than one
// thread the later failure comes first in time.
class SkewedExplainer : public Explainer {
 public:
  SkewedExplainer(int num_pairs, std::set<int> failing = {})
      : calls_(num_pairs), failing_(std::move(failing)) {}

  Result<WordExplanation> Explain(const Matcher& matcher,
                                  const RecordPair& pair,
                                  uint64_t seed) const override {
    const int index = static_cast<int>(seed >> 20);
    calls_[index].fetch_add(1);
    // Every fourth index is slow, so lanes finish their instances at
    // different times.
    if (index % 4 == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (failing_.count(index) > 0) {
      if (index == *failing_.begin()) {
        for (int wait = 0; wait < 200 && !later_failed_.load(); ++wait) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      } else {
        later_failed_.store(true);
      }
      return Status::Internal("failed index " + std::to_string(index));
    }
    return random_.Explain(matcher, pair, seed);
  }

  std::string Name() const override { return "skewed"; }

  int calls(int index) const { return calls_[index].load(); }

 private:
  mutable std::vector<std::atomic<int>> calls_;
  mutable std::atomic<bool> later_failed_{false};
  std::set<int> failing_;
  RandomExplainer random_;
};

TEST(EvaluateInstancesTest, ClaimsEveryIndexOnceUnderSkewedCost) {
  // Lanes claim instances one at a time, so which thread evaluates which
  // index follows the skewed costs. Every index must still be evaluated
  // exactly once, into its own slot, with the same bits at any thread
  // count; 13 instances are more than any lane count here.
  const Dataset dataset = SmallDataset();
  TokenWeightMatcher matcher({{"vortexa", 1.0}, {"lumenix", 0.7}}, -0.2);
  std::vector<int> idx(13);
  for (int i = 0; i < 13; ++i) idx[i] = 3 * i + 1;
  ASSERT_LT(idx.back(), dataset.size());

  std::vector<std::vector<InstanceEvaluation>> runs;
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ScopedScoringThreads scoped(threads);
    SkewedExplainer explainer(dataset.size());
    auto records =
        EvaluateInstances(explainer, matcher, dataset, idx, nullptr, 9);
    ASSERT_TRUE(records.ok()) << records.status().ToString();
    ASSERT_EQ(records->size(), idx.size());
    const std::set<int> listed(idx.begin(), idx.end());
    for (int i = 0; i < dataset.size(); ++i) {
      EXPECT_EQ(explainer.calls(i), listed.count(i) > 0 ? 1 : 0)
          << "index " << i;
    }
    for (size_t i = 0; i < idx.size(); ++i) {
      EXPECT_EQ(records.value()[i].index, idx[i]);
    }
    runs.push_back(std::move(records.value()));
  }
  for (size_t run = 1; run < runs.size(); ++run) {
    for (size_t i = 0; i < runs[0].size(); ++i) {
      SCOPED_TRACE("run=" + std::to_string(run) +
                   " instance=" + std::to_string(i));
      ExpectRecordsBitIdentical(runs[0][i], runs[run][i]);
    }
  }
}

TEST(EvaluateInstancesTest, ErrorsComeInIndexOrderNotCompletionOrder) {
  // Positions 1 and 10 fail; position 10 fails first in time on more than
  // one thread. The reported error is still position 1's.
  const Dataset dataset = SmallDataset();
  TokenWeightMatcher matcher({{"vortexa", 1.0}}, -0.1);
  std::vector<int> idx(12);
  for (int i = 0; i < 12; ++i) idx[i] = 2 * i + 3;
  ASSERT_LT(idx.back(), dataset.size());
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ScopedScoringThreads scoped(threads);
    SkewedExplainer explainer(dataset.size(), {idx[1], idx[10]});
    auto records =
        EvaluateInstances(explainer, matcher, dataset, idx, nullptr, 9);
    ASSERT_FALSE(records.ok());
    EXPECT_EQ(records.status().message(),
              "failed index " + std::to_string(idx[1]));
  }
}

TEST(ReduceInstancesTest, MatchesSerialReferenceImplementation) {
  // The historical implementation, verbatim: one serial loop accumulating
  // sums in instance order, scaled at the end. Sharded EvaluateInstances
  // plus the deterministic ReduceInstances must reproduce it bit for bit.
  const Dataset dataset = SmallDataset();
  TokenWeightMatcher matcher({{"vortexa", 1.0}, {"lumenix", 0.7}}, -0.2);
  const auto idx = SomeInstances(matcher, dataset, 6);
  ASSERT_FALSE(idx.empty());
  LimeConfig config;
  config.perturbation.num_samples = 48;
  LimeExplainer lime(config);
  const uint64_t seed = 9;

  ExplainerAggregate reference;
  reference.name = lime.Name();
  std::vector<double> reference_aopc;
  Tokenizer tokenizer;
  for (int i : idx) {
    const RecordPair& pair = dataset.pair(i);
    auto explained = ExplainAsUnitsEx(lime, matcher, pair,
                                      seed ^ (static_cast<uint64_t>(i) << 20));
    ASSERT_TRUE(explained.ok());
    const WordExplanation& words = explained->words;
    const std::vector<ExplanationUnit>& units = explained->units;
    if (units.empty()) continue;
    EvalInstance instance{PairTokenView(AnonymousSchema(pair), tokenizer,
                                        pair),
                          units, words.base_score, matcher.threshold()};
    const double aopc = AopcDeletion(matcher, instance, 5);
    reference_aopc.push_back(aopc);
    reference.aopc += aopc;
    reference.comprehensiveness_at_1 +=
        ComprehensivenessAtK(matcher, instance, 1);
    reference.comprehensiveness_at_3 +=
        ComprehensivenessAtK(matcher, instance, 3);
    reference.sufficiency_at_1 += SufficiencyAtK(matcher, instance, 1);
    reference.sufficiency_at_3 += SufficiencyAtK(matcher, instance, 3);
    reference.comprehensiveness_budget5 +=
        ComprehensivenessAtTokenBudget(matcher, instance, 5);
    reference.decision_flip_rate +=
        DecisionFlipAtTop(matcher, instance) ? 1.0 : 0.0;
    const ComprehensibilityResult comp =
        EvaluateComprehensibility(words, units, nullptr);
    reference.total_units += comp.total_units;
    reference.effective_units += comp.effective_units;
    reference.words_per_unit += comp.avg_words_per_unit;
    reference.semantic_coherence += comp.semantic_coherence;
    reference.attribute_purity += comp.attribute_purity;
    reference.surrogate_r2 += words.surrogate_r2;
    ++reference.instances;
  }
  ASSERT_GT(reference.instances, 0);
  const double inv = 1.0 / reference.instances;
  reference.aopc *= inv;
  reference.comprehensiveness_at_1 *= inv;
  reference.comprehensiveness_at_3 *= inv;
  reference.sufficiency_at_1 *= inv;
  reference.sufficiency_at_3 *= inv;
  reference.comprehensiveness_budget5 *= inv;
  reference.decision_flip_rate *= inv;
  reference.total_units *= inv;
  reference.effective_units *= inv;
  reference.words_per_unit *= inv;
  reference.semantic_coherence *= inv;
  reference.attribute_purity *= inv;
  reference.surrogate_r2 *= inv;

  for (int threads : {1, 4}) {
    ScopedScoringThreads scoped(threads);
    auto records =
        EvaluateInstances(lime, matcher, dataset, idx, nullptr, seed);
    ASSERT_TRUE(records.ok()) << "threads=" << threads;
    SCOPED_TRACE("threads=" + std::to_string(threads));
    std::vector<double> per_instance;
    for (const InstanceEvaluation& r : *records) {
      if (r.evaluated) per_instance.push_back(r.aopc);
    }
    const auto agg = ReduceInstances(lime.Name(), *records);
    EXPECT_EQ(per_instance, reference_aopc);
    EXPECT_EQ(agg.instances, reference.instances);
    EXPECT_EQ(agg.aopc, reference.aopc);
    EXPECT_EQ(agg.comprehensiveness_at_1, reference.comprehensiveness_at_1);
    EXPECT_EQ(agg.comprehensiveness_at_3, reference.comprehensiveness_at_3);
    EXPECT_EQ(agg.sufficiency_at_1, reference.sufficiency_at_1);
    EXPECT_EQ(agg.sufficiency_at_3, reference.sufficiency_at_3);
    EXPECT_EQ(agg.comprehensiveness_budget5,
              reference.comprehensiveness_budget5);
    EXPECT_EQ(agg.decision_flip_rate, reference.decision_flip_rate);
    EXPECT_EQ(agg.total_units, reference.total_units);
    EXPECT_EQ(agg.effective_units, reference.effective_units);
    EXPECT_EQ(agg.words_per_unit, reference.words_per_unit);
    EXPECT_EQ(agg.semantic_coherence, reference.semantic_coherence);
    EXPECT_EQ(agg.attribute_purity, reference.attribute_purity);
    EXPECT_EQ(agg.surrogate_r2, reference.surrogate_r2);
  }
}

TEST(ReduceInstancesTest, FilteredReductionSplitsByPrediction) {
  InstanceEvaluation match;
  match.evaluated = true;
  match.predicted_match = true;
  match.aopc = 0.8;
  InstanceEvaluation nonmatch;
  nonmatch.evaluated = true;
  nonmatch.predicted_match = false;
  nonmatch.aopc = 0.2;
  InstanceEvaluation skipped;  // evaluated = false: never counted
  const std::vector<InstanceEvaluation> records = {match, nonmatch, skipped};

  const auto all = ReduceInstances("x", records);
  EXPECT_EQ(all.instances, 2);
  EXPECT_DOUBLE_EQ(all.aopc, 0.5);
  const auto only_match = ReduceInstancesIf(
      "x", records,
      [](const InstanceEvaluation& r) { return r.predicted_match; });
  EXPECT_EQ(only_match.instances, 1);
  EXPECT_DOUBLE_EQ(only_match.aopc, 0.8);
}

BenchmarkEntry TinyEntry(const std::string& name, uint64_t seed) {
  BenchmarkEntry entry;
  entry.name = name;
  entry.config.num_matches = 30;
  entry.config.num_nonmatches = 30;
  entry.config.seed = seed;
  return entry;
}

TEST(ExperimentRunnerTest, RunsTheFullGridAndJsonRoundTrips) {
  ExperimentSpec spec;
  spec.name = "runner_grid_test";
  spec.datasets = {TinyEntry("tiny-a", 3), TinyEntry("tiny-b", 4)};
  spec.matcher = MatcherKind::kLogistic;
  spec.instances_per_dataset = 3;
  spec.seed = 7;
  spec.suite = [](const TrainedPipeline&) {
    std::vector<SuiteEntry> suite;
    LimeConfig lime;
    lime.perturbation.num_samples = 24;
    suite.push_back({"lime", std::make_unique<LimeExplainer>(lime)});
    suite.push_back({"random", std::make_unique<RandomExplainer>()});
    return suite;
  };
  ExperimentRunner runner(std::move(spec));
  auto result = runner.Run();
  ASSERT_TRUE(result.ok());

  EXPECT_EQ(result->name, "runner_grid_test");
  ASSERT_EQ(result->cells.size(), 4u);  // 2 datasets x 2 variants
  EXPECT_EQ(result->VariantNames(),
            (std::vector<std::string>{"lime", "random"}));
  for (const ExperimentCell& cell : result->cells) {
    EXPECT_EQ(cell.instances.size(), 3u);
    EXPECT_GT(cell.aggregate.instances, 0);
    EXPECT_TRUE(std::isfinite(cell.aggregate.aopc));
    if (cell.variant == "lime") {
      // LIME perturbations go through the batch scoring engine, so the
      // cell must have been attributed a non-zero counter delta.
      EXPECT_GT(cell.scoring.predictions, 0);
    }
  }
  const auto lime_aopc = result->PerInstanceAopc("lime");
  EXPECT_EQ(lime_aopc.size(),
            static_cast<size_t>(result->ReduceAcross("lime").instances));

  const std::string json = ExperimentResultToJson(*result);
  EXPECT_NE(json.find("\"experiment\":\"runner_grid_test\""),
            std::string::npos);
  EXPECT_NE(json.find("\"per_instance_aopc\""), std::string::npos);
  EXPECT_NE(json.find("\"aggregate\""), std::string::npos);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');

  const std::string path = ::testing::TempDir() + "/runner_result.json";
  ASSERT_TRUE(WriteExperimentJson(*result, path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  EXPECT_EQ(static_cast<size_t>(std::ftell(f)), json.size());
  std::fclose(f);
  std::remove(path.c_str());
}

TEST(ExperimentRunnerTest, GridIsBitIdenticalAcrossThreadCounts) {
  auto make_runner = [] {
    ExperimentSpec spec;
    spec.name = "determinism";
    spec.datasets = {TinyEntry("tiny", 3)};
    spec.matcher = MatcherKind::kLogistic;
    spec.instances_per_dataset = 4;
    spec.seed = 7;
    spec.suite = [](const TrainedPipeline&) {
      std::vector<SuiteEntry> suite;
      LimeConfig lime;
      lime.perturbation.num_samples = 32;
      suite.push_back({"lime", std::make_unique<LimeExplainer>(lime)});
      return suite;
    };
    return ExperimentRunner(std::move(spec));
  };
  std::vector<ExperimentResult> results;
  for (int threads : {1, 4}) {
    ScopedScoringThreads scoped(threads);
    auto result = make_runner().Run();
    ASSERT_TRUE(result.ok()) << "threads=" << threads;
    results.push_back(std::move(result.value()));
  }
  ASSERT_EQ(results[0].cells.size(), results[1].cells.size());
  for (size_t c = 0; c < results[0].cells.size(); ++c) {
    SCOPED_TRACE("cell=" + std::to_string(c));
    ExpectAggregatesBitIdentical(results[0].cells[c].aggregate,
                                 results[1].cells[c].aggregate);
    ASSERT_EQ(results[0].cells[c].instances.size(),
              results[1].cells[c].instances.size());
    for (size_t i = 0; i < results[0].cells[c].instances.size(); ++i) {
      ExpectRecordsBitIdentical(results[0].cells[c].instances[i],
                                results[1].cells[c].instances[i]);
    }
  }
}

TEST(ExperimentRunnerTest, CellsAreIndependentOfCompletionOrder) {
  // Property check behind the resume contract: executing the grid in a
  // shuffled order must not change a single byte of the serialized result
  // — cells land in canonical slots and derive their seeds from the grid
  // key, and the registry delta of a cell depends only on that cell's own
  // activity (all-zero entries registered by earlier cells are dropped).
  // Stable-timing mode zeroes the wall-clock fields that legitimately
  // differ.
  SetStableTiming(true);
  auto make_runner = [] {
    ExperimentSpec spec;
    spec.name = "order_independence";
    spec.datasets = {TinyEntry("tiny-a", 3), TinyEntry("tiny-b", 4)};
    spec.matcher = MatcherKind::kLogistic;
    spec.instances_per_dataset = 2;
    spec.seed = 7;
    spec.suite = [](const TrainedPipeline&) {
      std::vector<SuiteEntry> suite;
      LimeConfig lime;
      lime.perturbation.num_samples = 16;
      suite.push_back({"lime", std::make_unique<LimeExplainer>(lime)});
      suite.push_back({"random", std::make_unique<RandomExplainer>()});
      return suite;
    };
    return ExperimentRunner(std::move(spec));
  };
  auto canonical = make_runner().Run();
  ASSERT_TRUE(canonical.ok());
  const std::string canonical_json = ExperimentResultToJson(*canonical);
  for (uint64_t shuffle_seed : {11u, 42u, 97u}) {
    SCOPED_TRACE("shuffle_seed=" + std::to_string(shuffle_seed));
    RunHooks hooks;
    hooks.shuffle_seed = shuffle_seed;
    auto shuffled = make_runner().Run(hooks);
    ASSERT_TRUE(shuffled.ok());
    EXPECT_EQ(ExperimentResultToJson(*shuffled), canonical_json);
  }
  SetStableTiming(false);
}

TEST(ExperimentRunnerTest, RegistryDeltaAgreesWithScoringStats) {
  // Each cell carries the full metrics-registry delta for its run; the
  // legacy ScoringStats view is derived from the same read, so the two
  // must agree exactly, and the per-stage prediction split must sum to
  // the total.
  ExperimentSpec spec;
  spec.name = "registry_consistency";
  spec.datasets = {TinyEntry("tiny", 3)};
  spec.matcher = MatcherKind::kLogistic;
  spec.instances_per_dataset = 3;
  spec.seed = 7;
  spec.suite = [](const TrainedPipeline&) {
    std::vector<SuiteEntry> suite;
    LimeConfig lime;
    lime.perturbation.num_samples = 24;
    suite.push_back({"lime", std::make_unique<LimeExplainer>(lime)});
    return suite;
  };
  ExperimentRunner runner(std::move(spec));
  auto result = runner.Run();
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->cells.size(), 1u);
  const ExperimentCell& cell = result->cells[0];
  ASSERT_FALSE(cell.registry.empty());

  const MetricEntry* predictions =
      FindMetric(cell.registry, "crew/scoring/predictions");
  ASSERT_NE(predictions, nullptr);
  EXPECT_GT(predictions->count, 0);
  EXPECT_EQ(predictions->count, cell.scoring.predictions);

  const ScoringStats from_registry = ScoringStatsFromMetrics(cell.registry);
  EXPECT_EQ(from_registry.predictions, cell.scoring.predictions);
  EXPECT_EQ(from_registry.batches, cell.scoring.batches);
  EXPECT_EQ(from_registry.materialize_ms, cell.scoring.materialize_ms);
  EXPECT_EQ(from_registry.predict_ms, cell.scoring.predict_ms);

  // Per-stage split: crew/scoring/predictions/<stage> entries partition
  // the total prediction count.
  std::int64_t stage_sum = 0;
  int stages = 0;
  for (const MetricEntry& entry : cell.registry) {
    if (entry.name.rfind("crew/scoring/predictions/", 0) == 0) {
      stage_sum += entry.count;
      ++stages;
    }
  }
  EXPECT_GT(stages, 0);
  EXPECT_EQ(stage_sum, predictions->count);

  // The runner's own instrumentation was attributed to the cell too.
  const MetricEntry* instances =
      FindMetric(cell.registry, "crew/runner/instances");
  ASSERT_NE(instances, nullptr);
  EXPECT_EQ(instances->count, 3);
  const MetricEntry* wall = FindMetric(cell.registry, "crew/runner/instance");
  ASSERT_NE(wall, nullptr);
  EXPECT_EQ(wall->kind, MetricKind::kDuration);
  EXPECT_EQ(wall->count, 3);
}

TEST(RunGridTest, CheckpointedCustomTasksAreNeverRecomputed) {
  // Custom tasks (t1/t2/t7-style cells) run once; a rerun over the full
  // checkpoint restores every cell without calling compute at all.
  const std::string path = ::testing::TempDir() + "/run_grid_custom.jsonl";
  std::remove(path.c_str());
  int computed = 0;
  auto compute = [&computed]() -> Result<ExperimentCell> {
    ++computed;
    ExperimentCell cell;
    cell.metrics.push_back({"instances", 2.0});
    cell.notes.push_back({"note", "value"});
    return cell;
  };
  const std::vector<GridTask> tasks = {{"tiny-a", "custom", compute},
                                       {"tiny-b", "custom", compute}};
  ExperimentResult header;
  header.name = "custom";
  header.params.push_back({"seed", "7"});

  std::string first_json;
  {
    CheckpointStore checkpoint(path);
    ASSERT_TRUE(checkpoint.Load().ok());
    RunHooks hooks;
    hooks.checkpoint = &checkpoint;
    auto result = RunGrid(header, tasks, hooks);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(computed, 2);
    ASSERT_EQ(result->cells.size(), 2u);
    EXPECT_EQ(result->cells[0].dataset, "tiny-a");
    EXPECT_EQ(result->cells[1].dataset, "tiny-b");
    EXPECT_EQ(result->cells[1].variant, "custom");
    EXPECT_EQ(result->cells[0].metrics[0].second, 2.0);
    first_json = ExperimentResultToJson(*result);
    // Metric/note cells serialize without an aggregate block.
    EXPECT_EQ(first_json.find("\"aggregate\""), std::string::npos);
    EXPECT_NE(first_json.find("\"notes\""), std::string::npos);
  }

  CheckpointStore checkpoint(path);
  ASSERT_TRUE(checkpoint.Load().ok());
  EXPECT_EQ(checkpoint.done_cells(), 2);
  RunHooks hooks;
  hooks.checkpoint = &checkpoint;
  auto resumed = RunGrid(header, tasks, hooks);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(computed, 2);  // zero compute calls on the rerun
  EXPECT_EQ(ExperimentResultToJson(*resumed), first_json);
  std::remove(path.c_str());
}

TEST(SinksTest, TableColumnsFormatCells) {
  ExperimentCell cell;
  cell.dataset = "d";
  cell.variant = "v";
  cell.aggregate.aopc = 0.25;
  cell.metrics.push_back({"f1", 0.5});
  cell.notes.push_back({"label", "hello"});
  const std::vector<ExperimentCell> cells = {cell};
  Table table = MakeCellTable(
      cells,
      {AggColumn("aopc", &ExplainerAggregate::aopc, 2),
       MetricColumn("f1", "f1", 1), MetricColumn("missing", "nope"),
       NoteColumn("label", "label")});
  const std::string text = table.ToAligned();
  EXPECT_NE(text.find("0.25"), std::string::npos);
  EXPECT_NE(text.find("0.5"), std::string::npos);
  EXPECT_NE(text.find("hello"), std::string::npos);
  EXPECT_NE(text.find("-"), std::string::npos);  // missing metric
}

}  // namespace
}  // namespace crew
