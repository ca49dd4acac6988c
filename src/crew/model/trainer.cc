#include "crew/model/trainer.h"

#include "crew/embed/sgns.h"
#include "crew/model/embedding_bag_matcher.h"
#include "crew/model/logistic_matcher.h"
#include "crew/model/mlp_matcher.h"
#include "crew/model/random_forest_matcher.h"
#include "crew/model/rule_matcher.h"

namespace crew {

const char* MatcherKindName(MatcherKind kind) {
  switch (kind) {
    case MatcherKind::kLogistic:
      return "logistic";
    case MatcherKind::kMlp:
      return "mlp";
    case MatcherKind::kEmbeddingBag:
      return "embedding_bag";
    case MatcherKind::kRandomForest:
      return "random_forest";
    case MatcherKind::kRule:
      return "rule";
  }
  return "unknown";
}

std::vector<MatcherKind> AllMatcherKinds() {
  return {MatcherKind::kLogistic, MatcherKind::kMlp,
          MatcherKind::kEmbeddingBag, MatcherKind::kRandomForest,
          MatcherKind::kRule};
}

Result<MatcherKind> MatcherKindFromName(std::string_view name) {
  for (MatcherKind kind : AllMatcherKinds()) {
    if (name == MatcherKindName(kind)) return kind;
  }
  return Status::InvalidArgument("unknown matcher: " + std::string(name));
}

Result<std::unique_ptr<Matcher>> TrainMatcher(
    MatcherKind kind, const Dataset& train,
    std::shared_ptr<const EmbeddingStore> embeddings, uint64_t seed) {
  switch (kind) {
    case MatcherKind::kLogistic: {
      LogisticConfig config;
      config.seed = seed;
      auto m = LogisticMatcher::Train(train, embeddings, config);
      if (!m.ok()) return m.status();
      return std::unique_ptr<Matcher>(std::move(m.value()));
    }
    case MatcherKind::kMlp: {
      MlpConfig config;
      config.seed = seed;
      auto m = MlpMatcher::Train(train, embeddings, config);
      if (!m.ok()) return m.status();
      return std::unique_ptr<Matcher>(std::move(m.value()));
    }
    case MatcherKind::kEmbeddingBag: {
      EmbeddingBagConfig config;
      config.seed = seed;
      auto m = EmbeddingBagMatcher::Train(train, embeddings, config);
      if (!m.ok()) return m.status();
      return std::unique_ptr<Matcher>(std::move(m.value()));
    }
    case MatcherKind::kRandomForest: {
      RandomForestConfig config;
      config.seed = seed;
      auto m = RandomForestMatcher::Train(train, embeddings, config);
      if (!m.ok()) return m.status();
      return std::unique_ptr<Matcher>(std::move(m.value()));
    }
    case MatcherKind::kRule: {
      auto m = RuleMatcher::Train(train, embeddings);
      if (!m.ok()) return m.status();
      return std::unique_ptr<Matcher>(std::move(m.value()));
    }
  }
  return Status::InvalidArgument("TrainMatcher: unknown matcher kind");
}

Result<TrainedPipeline> TrainPipeline(const Dataset& dataset,
                                      MatcherKind kind, double train_fraction,
                                      uint64_t seed) {
  if (dataset.empty()) {
    return Status::InvalidArgument("TrainPipeline: empty dataset");
  }
  TrainedPipeline pipeline;
  Rng rng(seed);
  dataset.Split(train_fraction, rng, &pipeline.train, &pipeline.test);

  Tokenizer tokenizer;
  SgnsConfig sgns;
  sgns.seed = seed ^ 0x5eedULL;
  auto embeddings =
      TrainSgnsEmbeddings(BuildCorpus(pipeline.train, tokenizer), sgns);
  if (!embeddings.ok()) return embeddings.status();
  pipeline.embeddings = std::make_shared<const EmbeddingStore>(
      std::move(embeddings.value()));

  auto matcher = TrainMatcher(kind, pipeline.train, pipeline.embeddings, seed);
  if (!matcher.ok()) return matcher.status();
  pipeline.matcher = std::move(matcher.value());
  pipeline.test_metrics = EvaluateMatcher(*pipeline.matcher, pipeline.test);
  return pipeline;
}

}  // namespace crew
