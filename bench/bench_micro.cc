// Micro-benchmarks (google-benchmark) for the hot inner loops: tokenizer,
// string similarity, ridge solve, agglomerative clustering, matcher
// prediction and training, SGNS training step throughput.

#include <benchmark/benchmark.h>

#include <map>

#include "crew/common/rng.h"
#include "crew/core/agglomerative.h"
#include "crew/data/benchmark_suite.h"
#include "crew/data/generator.h"
#include "crew/embed/sgns.h"
#include "crew/explain/token_view.h"
#include "crew/la/ridge.h"
#include "crew/model/embedding_bag_matcher.h"
#include "crew/model/mlp_matcher.h"
#include "crew/model/trainer.h"
#include "crew/text/string_similarity.h"
#include "crew/text/tokenizer.h"

namespace {

void BM_Tokenize(benchmark::State& state) {
  crew::Tokenizer tokenizer;
  const std::string text =
      "Vortexa Wireless Headphones MX-4821 with noise cancelling, "
      "bluetooth 5.0 and fast-charging in graphite";
  for (auto _ : state) {
    benchmark::DoNotOptimize(tokenizer.Tokenize(text));
  }
}
BENCHMARK(BM_Tokenize);

void BM_Levenshtein(benchmark::State& state) {
  const std::string a(state.range(0), 'a');
  std::string b(state.range(0), 'a');
  for (size_t i = 0; i < b.size(); i += 3) b[i] = 'b';
  for (auto _ : state) {
    benchmark::DoNotOptimize(crew::LevenshteinDistance(a, b));
  }
}
BENCHMARK(BM_Levenshtein)->Arg(8)->Arg(32)->Arg(128);

void BM_JaroWinkler(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crew::JaroWinklerSimilarity("corporation", "corporaiton"));
  }
}
BENCHMARK(BM_JaroWinkler);

void BM_RidgeFit(benchmark::State& state) {
  const int n = 256;
  const int d = static_cast<int>(state.range(0));
  crew::Rng rng(1);
  crew::la::Matrix x(n, d);
  crew::la::Vec y(n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < d; ++j) x.At(i, j) = rng.Uniform();
    y[i] = rng.Uniform();
  }
  for (auto _ : state) {
    crew::la::RidgeModel model;
    benchmark::DoNotOptimize(crew::la::FitRidge(x, y, {}, 1.0, &model));
  }
}
BENCHMARK(BM_RidgeFit)->Arg(16)->Arg(48);

void BM_Agglomerative(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  crew::Rng rng(2);
  crew::la::Matrix d(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      d.At(i, j) = d.At(j, i) = rng.Uniform();
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crew::AgglomerativeCluster(d, crew::Linkage::kAverage));
  }
}
BENCHMARK(BM_Agglomerative)->Arg(16)->Arg(48)->Arg(96);

void BM_MatcherPredict(benchmark::State& state) {
  static const auto* pipeline = [] {
    crew::GeneratorConfig config;
    config.num_matches = 100;
    config.num_nonmatches = 100;
    auto d = crew::GenerateDataset(config);
    CREW_CHECK(d.ok());
    auto p = crew::TrainPipeline(d.value(), crew::MatcherKind::kMlp, 0.7, 7);
    CREW_CHECK(p.ok());
    return new crew::TrainedPipeline(std::move(p.value()));
  }();
  const crew::RecordPair& pair = pipeline->test.pair(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipeline->matcher->PredictProba(pair));
  }
}
BENCHMARK(BM_MatcherPredict);

// One trained pipeline per matcher kind, built lazily and shared across
// benchmark iterations (training is far too slow to repeat per run).
const crew::TrainedPipeline& PipelineFor(crew::MatcherKind kind) {
  static auto* pipelines =
      new std::map<crew::MatcherKind, crew::TrainedPipeline>();
  auto it = pipelines->find(kind);
  if (it == pipelines->end()) {
    crew::GeneratorConfig config;
    config.num_matches = 100;
    config.num_nonmatches = 100;
    auto d = crew::GenerateDataset(config);
    CREW_CHECK(d.ok());
    auto p = crew::TrainPipeline(d.value(), kind, 0.7, 7);
    CREW_CHECK(p.ok());
    it = pipelines->emplace(kind, std::move(p.value())).first;
  }
  return it->second;
}

// Batched scoring vs the per-pair loop, per matcher kind and batch size.
// The batch path hoists feature/tokenization/embedding buffers out of the
// per-sample loop; the gap between the two is the per-sample setup cost.
void BM_PredictProbaBatch(benchmark::State& state) {
  const auto kind = static_cast<crew::MatcherKind>(state.range(0));
  const int batch = static_cast<int>(state.range(1));
  const auto& pipeline = PipelineFor(kind);
  std::vector<crew::RecordPair> pairs;
  pairs.reserve(batch);
  for (int i = 0; i < batch; ++i) {
    pairs.push_back(pipeline.test.pair(i % pipeline.test.size()));
  }
  std::vector<double> scores;
  for (auto _ : state) {
    pipeline.matcher->PredictProbaBatch(pairs, &scores);
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}

void BM_PredictProbaLoop(benchmark::State& state) {
  const auto kind = static_cast<crew::MatcherKind>(state.range(0));
  const int batch = static_cast<int>(state.range(1));
  const auto& pipeline = PipelineFor(kind);
  std::vector<crew::RecordPair> pairs;
  pairs.reserve(batch);
  for (int i = 0; i < batch; ++i) {
    pairs.push_back(pipeline.test.pair(i % pipeline.test.size()));
  }
  std::vector<double> scores(batch);
  for (auto _ : state) {
    for (int i = 0; i < batch; ++i) {
      scores[i] = pipeline.matcher->PredictProba(pairs[i]);
    }
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}

void BatchArgs(benchmark::internal::Benchmark* b) {
  for (crew::MatcherKind kind : crew::AllMatcherKinds()) {
    for (int batch : {32, 256, 1024}) {
      b->Args({static_cast<long>(kind), batch});
    }
  }
}
BENCHMARK(BM_PredictProbaBatch)->Apply(BatchArgs);
BENCHMARK(BM_PredictProbaLoop)->Apply(BatchArgs);

// Perturbation-shaped batch through the embedding-bag matcher: every pair
// in the batch is a variant of the same record pair, so the scratch's
// token -> embedding-row cache should absorb nearly all vocabulary
// lookups after the first variant (the case the cache exists for).
void BM_EmbeddingBagPerturbationBatch(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  const auto& pipeline = PipelineFor(crew::MatcherKind::kEmbeddingBag);
  std::vector<crew::RecordPair> pairs(batch, pipeline.test.pair(0));
  std::vector<double> scores;
  for (auto _ : state) {
    pipeline.matcher->PredictProbaBatch(pairs, &scores);
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_EmbeddingBagPerturbationBatch)->Arg(32)->Arg(256)->Arg(1024);

// Embedding-bag training on one grid dataset's train split (the first
// StandardBenchmark entry at the grid's size): encoding plus 80 epochs of
// SGD, the per-dataset matcher cost of an embedding-bag grid's prepare.
void BM_TrainEmbeddingBag(benchmark::State& state) {
  static const auto* pipeline = [] {
    auto d = crew::GenerateDataset(crew::StandardBenchmark()[0].config);
    CREW_CHECK(d.ok());
    auto p = crew::TrainPipeline(d.value(), crew::MatcherKind::kEmbeddingBag,
                                 0.7, 7);
    CREW_CHECK(p.ok());
    return new crew::TrainedPipeline(std::move(p.value()));
  }();
  crew::EmbeddingBagConfig config;
  config.seed = 7;
  for (auto _ : state) {
    auto matcher = crew::EmbeddingBagMatcher::Train(
        pipeline->train, pipeline->embeddings, config);
    CREW_CHECK(matcher.ok());
    benchmark::DoNotOptimize(matcher.value().get());
  }
  state.SetItemsProcessed(state.iterations() * pipeline->train.size());
}
BENCHMARK(BM_TrainEmbeddingBag)->Unit(benchmark::kMillisecond);

// Mlp training on the same split: featurizing the training pairs plus 60
// epochs of SGD, the per-dataset matcher cost of the paper grid's prepare.
void BM_TrainMlp(benchmark::State& state) {
  static const auto* pipeline = [] {
    auto d = crew::GenerateDataset(crew::StandardBenchmark()[0].config);
    CREW_CHECK(d.ok());
    auto p = crew::TrainPipeline(d.value(), crew::MatcherKind::kMlp, 0.7, 7);
    CREW_CHECK(p.ok());
    return new crew::TrainedPipeline(std::move(p.value()));
  }();
  crew::MlpConfig config;
  config.seed = 7;
  for (auto _ : state) {
    auto matcher =
        crew::MlpMatcher::Train(pipeline->train, pipeline->embeddings, config);
    CREW_CHECK(matcher.ok());
    benchmark::DoNotOptimize(matcher.value().get());
  }
  state.SetItemsProcessed(state.iterations() * pipeline->train.size());
}
BENCHMARK(BM_TrainMlp)->Unit(benchmark::kMillisecond);

// One scoring block through a featurizer-based matcher: 64 random
// keep-mask variants of one pair (BatchScorer's block size). Variants
// repeat most attribute values, which the featurizer's per-attribute memo
// serves; BM_PredictProbaBatch scores distinct pairs and never hits it.
void BM_FeaturizePerturbationBatch(benchmark::State& state) {
  constexpr int kBlock = 64;
  const auto kind = static_cast<crew::MatcherKind>(state.range(0));
  const auto& pipeline = PipelineFor(kind);
  const crew::PairTokenView view(pipeline.train.schema(), crew::Tokenizer(),
                                 pipeline.test.pair(0));
  crew::Rng rng(11);
  std::vector<crew::RecordPair> pairs(kBlock);
  std::vector<bool> keep(view.size());
  for (auto& pair : pairs) {
    for (int i = 0; i < view.size(); ++i) keep[i] = rng.Bernoulli(0.7);
    view.MaterializeInto(keep, &pair);
  }
  std::vector<double> scores;
  for (auto _ : state) {
    pipeline.matcher->PredictProbaBatch(pairs, &scores);
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(state.iterations() * kBlock);
}
BENCHMARK(BM_FeaturizePerturbationBatch)
    ->Arg(static_cast<long>(crew::MatcherKind::kLogistic))
    ->Arg(static_cast<long>(crew::MatcherKind::kMlp))
    ->Arg(static_cast<long>(crew::MatcherKind::kRandomForest));

// One explained pair as the eval layer scores it through the mlp matcher:
// a 96-mask attribution batch, then ten 5-mask calls and six single-pair
// calls over the same pair. The featurizer's per-thread memo carries the
// attribute values of one call into the next, which a single batch
// (BM_FeaturizePerturbationBatch) cannot show. Iterations cycle over
// eight test pairs, so each sequence starts on another pair's memo.
void BM_FeaturizeAcrossCalls(benchmark::State& state) {
  constexpr int kPairs = 8;
  constexpr int kBatch = 96;
  constexpr int kSmallCalls = 10;
  constexpr int kSmallBatch = 5;
  constexpr int kSingles = 6;
  constexpr int kMasks = kBatch + kSmallCalls * kSmallBatch + kSingles;
  const auto& pipeline = PipelineFor(crew::MatcherKind::kMlp);
  crew::Rng rng(17);
  std::vector<std::vector<crew::RecordPair>> variants(kPairs);
  for (int p = 0; p < kPairs; ++p) {
    const crew::PairTokenView view(pipeline.train.schema(), crew::Tokenizer(),
                                   pipeline.test.pair(p));
    std::vector<bool> keep(view.size());
    variants[p].resize(kMasks);
    for (auto& pair : variants[p]) {
      for (int i = 0; i < view.size(); ++i) keep[i] = rng.Bernoulli(0.7);
      view.MaterializeInto(keep, &pair);
    }
  }
  const crew::Matcher& matcher = *pipeline.matcher;
  std::vector<double> scores(kMasks);
  int p = 0;
  for (auto _ : state) {
    const crew::RecordPair* pairs = variants[p].data();
    p = (p + 1) % kPairs;
    matcher.PredictProbaBatch(pairs, kBatch, scores.data());
    int next = kBatch;
    for (int call = 0; call < kSmallCalls; ++call) {
      matcher.PredictProbaBatch(pairs + next, kSmallBatch,
                                scores.data() + next);
      next += kSmallBatch;
      if (call < kSingles) {
        scores[next] = matcher.PredictProba(pairs[next]);
        ++next;
      }
    }
    benchmark::DoNotOptimize(scores.data());
  }
  state.SetItemsProcessed(state.iterations() * kMasks);
}
BENCHMARK(BM_FeaturizeAcrossCalls);

void BM_SgnsEpoch(benchmark::State& state) {
  crew::Corpus corpus;
  crew::Rng rng(3);
  for (int s = 0; s < 200; ++s) {
    std::vector<std::string> sentence;
    for (int w = 0; w < 12; ++w) {
      // Append instead of operator+: avoids GCC 12's -Wrestrict false
      // positive (PR105651) under -O2, promoted to an error by -Werror.
      std::string word = "w";
      word += std::to_string(rng.UniformInt(300));
      sentence.push_back(std::move(word));
    }
    corpus.push_back(std::move(sentence));
  }
  for (auto _ : state) {
    crew::SgnsConfig config;
    config.dim = 16;
    config.epochs = 1;
    config.min_count = 1;
    benchmark::DoNotOptimize(crew::TrainSgnsEmbeddings(corpus, config));
  }
}
BENCHMARK(BM_SgnsEpoch);

}  // namespace

BENCHMARK_MAIN();
