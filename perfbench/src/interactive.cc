// crew-interactive: one client asking CREW to explain single matcher
// decisions, each request sent when the previous one returns (a closed
// loop), over every test pair of one products-dirty dataset. The deployed
// matcher is fixed (corpus and training seed kCorpusSeed); the workload seed
// generates the request stream: the order of the pairs and every request's
// explainer seed.

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "crew/common/rng.h"
#include "crew/common/thread_pool.h"
#include "crew/core/crew_explainer.h"
#include "crew/data/benchmark_suite.h"
#include "crew/eval/faithfulness.h"
#include "crew/explain/random_explainer.h"
#include "crew/explain/serialize.h"
#include "crew/explain/token_view.h"
#include "crew/model/trainer.h"
#include "crew/text/tokenizer.h"
#include "traced_matcher.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr crew::MatcherKind kMatcher = crew::MatcherKind::kEmbeddingBag;
constexpr double kTrainFraction = 0.7;

struct InteractiveShape {
  // 1100 pairs at a 0.7 train split leave 330 distinct test pairs.
  int matches = 450;
  int nonmatches = 650;
  int samples = 96;
  int min_test_pairs = 300;
  int setups = 3;
  int min_rounds = 3;
};

InteractiveShape Shape(bool tiny) {
  InteractiveShape s;
  if (tiny) {
    s.matches = 60;
    s.nonmatches = 90;
    s.samples = 16;
    s.min_test_pairs = 40;
    s.setups = 1;
    s.min_rounds = 1;
  }
  return s;
}

crew::Result<crew::Dataset> GenerateInput(const InteractiveShape& shape) {
  for (const crew::BenchmarkEntry& entry : crew::StandardBenchmark(
           kCorpusSeed, shape.matches, shape.nonmatches)) {
    if (entry.name == "products-dirty") {
      return crew::GenerateDataset(entry.config);
    }
  }
  return crew::Status::NotFound("products-dirty is not in the benchmark");
}

crew::CrewConfig Config(const InteractiveShape& shape) {
  crew::CrewConfig config;
  config.importance.perturbation.num_samples = shape.samples;
  return config;
}

/// Distinct explainer seed per request: one per (round, test pair).
std::uint64_t RequestSeed(std::uint64_t seed, int round, int index) {
  std::uint64_t x =
      seed + 0x9e3779b97f4a7c15ULL *
                 (1 + static_cast<std::uint64_t>(round) * 1000003ULL +
                  static_cast<std::uint64_t>(index));
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The order in which the client visits the test pairs.
std::vector<int> RequestOrder(int n, std::uint64_t seed) {
  std::vector<int> order(n);
  for (int i = 0; i < n; ++i) order[i] = i;
  crew::Rng(seed).Shuffle(order);
  return order;
}

/// Mean AOPC (max k = 5, the runner's default) of explanations given as
/// units; pairs with no units are skipped as the runner skips them.
double MeanAopc(const crew::Matcher& matcher, const crew::Dataset& test,
                const std::vector<std::vector<crew::ExplanationUnit>>& units,
                const std::vector<double>& base_scores) {
  double sum = 0.0;
  int n = 0;
  for (size_t i = 0; i < units.size(); ++i) {
    if (units[i].empty()) continue;
    const crew::RecordPair& pair = test.pair(static_cast<int>(i));
    crew::Tokenizer tokenizer;
    crew::EvalInstance instance{
        crew::PairTokenView(crew::AnonymousSchema(pair), tokenizer, pair),
        units[i], base_scores[i], matcher.threshold()};
    sum += crew::AopcDeletion(matcher, instance, 5);
    ++n;
  }
  return n > 0 ? sum / n : 0.0;
}

/// One round: every test pair once, in the seed's order. Returns the
/// explanations (canonical JSON) and per-request latencies, indexed by test
/// pair; failures are counted.
struct Round {
  std::vector<std::string> json;
  std::vector<crew::ClusterExplanation> explanations;
  std::vector<double> latency_ms;
  std::int64_t failed = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

Round ExplainRound(const crew::CrewExplainer& explainer,
                   const crew::Matcher& matcher,
                   const crew::Dataset& test, std::uint64_t seed, int round,
                   bool keep) {
  Round out;
  const int n = test.size();
  out.json.resize(n);
  out.latency_ms.resize(n);
  if (keep) out.explanations.resize(n);
  const std::vector<int> order = RequestOrder(n, seed);
  const double cpu0 = ProcessCpuSeconds();
  const double t0 = NowSeconds();
  for (int k = 0; k < n; ++k) {
    const int i = order[k];
    ScopedSpan span("core.crew", static_cast<std::int64_t>(round) * n + k);
    const double start = NowSeconds();
    auto ex = explainer.ExplainClusters(matcher, test.pair(i),
                                        RequestSeed(seed, round, i));
    out.latency_ms[i] = (NowSeconds() - start) * 1e3;
    if (!ex.ok()) {
      ++out.failed;
      continue;
    }
    span.set_items(static_cast<std::int64_t>(ex->units.size()));
    out.json[i] = crew::ClusterExplanationToJson(ex.value());
    if (keep) out.explanations[i] = std::move(ex.value());
  }
  out.wall_s = NowSeconds() - t0;
  out.cpu_s = ProcessCpuSeconds() - cpu0;
  return out;
}

Outcome MeasureInteractive(const Options& options) {
  Outcome outcome;
  const InteractiveShape shape = Shape(options.tiny);
  crew::SetScoringThreads(1);
  const double start = NowSeconds();
  auto input = GenerateInput(shape);
  outcome.Check(input.ok(), "generate input: " + input.status().ToString());
  if (!input.ok()) return outcome;

  std::vector<double> setup_s, setup_cpu;
  crew::TrainedPipeline pipeline;
  std::unique_ptr<crew::CrewExplainer> explainer;
  for (int s = 0; s < shape.setups; ++s) {
    const double cpu0 = ProcessCpuSeconds();
    const double t0 = NowSeconds();
    auto trained = crew::TrainPipeline(input.value(), kMatcher,
                                       kTrainFraction, kCorpusSeed);
    if (!trained.ok()) {
      outcome.Check(false, "train pipeline: " + trained.status().ToString());
      return outcome;
    }
    explainer.reset();
    pipeline = std::move(trained.value());
    explainer = std::make_unique<crew::CrewExplainer>(pipeline.embeddings,
                                                      Config(shape));
    setup_s.push_back(NowSeconds() - t0);
    setup_cpu.push_back(ProcessCpuSeconds() - cpu0);
  }
  const crew::Dataset& test = pipeline.test;
  const crew::Matcher& matcher = *pipeline.matcher;
  outcome.Check(test.size() >= shape.min_test_pairs,
                std::to_string(test.size()) + " distinct test pairs (need " +
                    std::to_string(shape.min_test_pairs) + ")");

  std::vector<std::vector<double>> per_pair(test.size());
  std::vector<double> round_wall, round_cpu;
  Round first;
  for (int round = 0;; ++round) {
    Round r = ExplainRound(*explainer, matcher, test, options.seed, round,
                           round == 0);
    outcome.Attempt(test.size(), r.failed, "crew requests");
    for (int i = 0; i < test.size(); ++i) {
      if (!r.json[i].empty()) per_pair[i].push_back(r.latency_ms[i]);
    }
    round_wall.push_back(r.wall_s);
    round_cpu.push_back(r.cpu_s);
    if (round == 0) first = std::move(r);
    const double elapsed = NowSeconds() - start;
    if (round + 1 >= shape.min_rounds &&
        elapsed + round_wall.back() > options.seconds) {
      break;
    }
  }

  // Correctness, outside the timed rounds: a repeated request returns the
  // same explanation, and CREW's clusters beat random word units on AOPC.
  const int repeat = std::min(16, test.size());
  int same = 0;
  for (int i = 0; i < repeat; ++i) {
    auto again = explainer->ExplainClusters(matcher, test.pair(i),
                                            RequestSeed(options.seed, 0, i));
    if (again.ok() &&
        crew::ClusterExplanationToJson(again.value()) == first.json[i]) {
      ++same;
    }
  }
  outcome.Check(same == repeat,
                "repeated requests give identical explanations (" +
                    std::to_string(same) + " of " + std::to_string(repeat) +
                    ")");
  std::vector<std::vector<crew::ExplanationUnit>> crew_units, random_units;
  std::vector<double> crew_base, random_base;
  const crew::RandomExplainer random;
  for (int i = 0; i < test.size(); ++i) {
    crew_units.push_back(first.explanations[i].units);
    crew_base.push_back(first.explanations[i].base_score());
    auto words = random.Explain(matcher, test.pair(i),
                                RequestSeed(options.seed, 0, i));
    random_units.push_back(words.ok() ? crew::SingletonUnits(words.value())
                                      : std::vector<crew::ExplanationUnit>());
    random_base.push_back(words.ok() ? words->base_score : 0.0);
  }
  const double crew_aopc = MeanAopc(matcher, test, crew_units, crew_base);
  const double random_aopc = MeanAopc(matcher, test, random_units, random_base);
  outcome.Check(crew_aopc > random_aopc,
                "crew AOPC " + std::to_string(crew_aopc) +
                    " exceeds random " + std::to_string(random_aopc));

  std::vector<double> medians;
  for (const auto& samples : per_pair) {
    if (!samples.empty()) medians.push_back(Median(samples));
  }
  const double round_s = Median(round_wall);
  const auto items = static_cast<std::int64_t>(medians.size());
  outcome.Add("setup_s", Median(setup_s), "s", "lower",
              static_cast<std::int64_t>(setup_s.size()));
  outcome.Add("wall_s", Median(setup_s) + round_s, "s", "lower",
              static_cast<std::int64_t>(round_wall.size()));
  outcome.Add("cpu_s", Median(setup_cpu) + Median(round_cpu), "s", "lower",
              static_cast<std::int64_t>(round_cpu.size()));
  outcome.Add("peak_rss_mb", PeakRssMb(), "MB", "lower");
  outcome.Add("explanations_per_s", static_cast<double>(test.size()) / round_s,
              "1/s", "higher", static_cast<std::int64_t>(round_wall.size()));
  outcome.Add("explain_ms_p50", Quantile(medians, 0.5), "ms", "lower", items);
  outcome.Add("explain_ms_p95", Quantile(medians, 0.95), "ms", "lower", items);
  outcome.Add("crew_aopc", crew_aopc, "aopc", "higher");
  return outcome;
}

Outcome TraceInteractive(const Options& options) {
  Outcome outcome;
  const InteractiveShape shape = Shape(options.tiny);
  crew::SetScoringThreads(1);

  // Untraced: generate, set up, one round.
  double plain_wall_s = 0.0;
  double busy_frac = 0.0;
  std::vector<std::string> plain_json;
  {
    const double t0 = NowSeconds();
    auto input = GenerateInput(shape);
    auto pipeline =
        input.ok() ? crew::TrainPipeline(input.value(), kMatcher,
                                         kTrainFraction, kCorpusSeed)
                   : crew::Result<crew::TrainedPipeline>(input.status());
    outcome.Check(pipeline.ok(),
                  "untraced setup: " + pipeline.status().ToString());
    if (!pipeline.ok()) return outcome;
    const crew::CrewExplainer explainer(pipeline->embeddings, Config(shape));
    Round r = ExplainRound(explainer, *pipeline->matcher, pipeline->test,
                           options.seed, 0, false);
    plain_wall_s = NowSeconds() - t0;
    busy_frac = r.cpu_s / r.wall_s;
    outcome.Attempt(pipeline->test.size(), r.failed, "untraced crew requests");
    plain_json = std::move(r.json);
  }

  // Traced: the same calls, each under a span.
  SpanRecorder recorder;
  SetActiveRecorder(&recorder);
  const double t0 = NowSeconds();
  std::vector<std::string> traced_json;
  crew::Status status = [&]() -> crew::Status {
    auto input = [&] {
      ScopedSpan span("data.generate");
      return GenerateInput(shape);
    }();
    if (!input.ok()) return input.status();
    auto pipeline = TracedTrainPipeline(input.value(), kMatcher,
                                        kTrainFraction, kCorpusSeed);
    if (!pipeline.ok()) return pipeline.status();
    std::unique_ptr<crew::CrewExplainer> explainer;
    {
      ScopedSpan span("core.setup");
      explainer = std::make_unique<crew::CrewExplainer>(pipeline->embeddings,
                                                        Config(shape));
    }
    TracedMatcher matcher(*pipeline->matcher);
    Round r = ExplainRound(*explainer, matcher, pipeline->test, options.seed, 0,
                           false);
    outcome.Attempt(pipeline->test.size(), r.failed, "traced crew requests");
    traced_json = std::move(r.json);
    return crew::Status::Ok();
  }();
  const double traced_wall_ms = (NowSeconds() - t0) * 1e3;
  SetActiveRecorder(nullptr);
  outcome.Check(status.ok(), "traced run: " + status.ToString());
  outcome.Check(traced_json == plain_json,
                "traced and untraced runs give identical explanations");

  outcome.Add("common.pool_busy_frac", busy_frac, "frac", "higher");
  outcome.Add("trace.overhead_frac", traced_wall_ms / 1e3 / plain_wall_s - 1.0,
              "frac", "lower");
  FinishTracedRun(recorder, traced_wall_ms, SpansPath(options), &outcome);
  return outcome;
}

}  // namespace

Outcome RunCrewInteractive(const Options& options) {
  return options.trace ? TraceInteractive(options)
                       : MeasureInteractive(options);
}

}  // namespace perfbench
