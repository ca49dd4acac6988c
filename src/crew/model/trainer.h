#ifndef CREW_MODEL_TRAINER_H_
#define CREW_MODEL_TRAINER_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "crew/common/status.h"
#include "crew/data/dataset.h"
#include "crew/embed/embedding_store.h"
#include "crew/model/matcher.h"
#include "crew/model/metrics.h"

namespace crew {

enum class MatcherKind { kLogistic, kMlp, kEmbeddingBag, kRandomForest, kRule };

const char* MatcherKindName(MatcherKind kind);

/// The kind whose MatcherKindName is `name`; InvalidArgument otherwise.
Result<MatcherKind> MatcherKindFromName(std::string_view name);

/// All matcher kinds, in canonical table order.
std::vector<MatcherKind> AllMatcherKinds();

/// Factory: trains the requested matcher kind with its default
/// configuration (seeded deterministically from `seed`).
Result<std::unique_ptr<Matcher>> TrainMatcher(
    MatcherKind kind, const Dataset& train,
    std::shared_ptr<const EmbeddingStore> embeddings, uint64_t seed = 41);

/// One-call pipeline used by benches and examples: split the dataset, train
/// SGNS embeddings on the training half, train the matcher, evaluate on the
/// held-out half.
struct TrainedPipeline {
  std::shared_ptr<const EmbeddingStore> embeddings;
  std::unique_ptr<Matcher> matcher;
  Dataset train;
  Dataset test;
  ClassificationMetrics test_metrics;
};

Result<TrainedPipeline> TrainPipeline(const Dataset& dataset,
                                      MatcherKind kind,
                                      double train_fraction = 0.7,
                                      uint64_t seed = 41);

}  // namespace crew

#endif  // CREW_MODEL_TRAINER_H_
