#ifndef CREW_EMBED_SGNS_H_
#define CREW_EMBED_SGNS_H_

#include "crew/common/status.h"
#include "crew/embed/cooccurrence.h"
#include "crew/embed/embedding_store.h"

namespace crew {

struct SgnsConfig {
  int dim = 32;
  int window = 5;
  int min_count = 2;
  int negative_samples = 5;
  int epochs = 5;
  double learning_rate = 0.05;      ///< linearly decayed to 1e-4
  double subsample_threshold = 1e-3; ///< word2vec-style frequent-word dropout
  uint64_t seed = 13;
};

/// The pruned vocabulary and the raw input (center) vectors SGNS trained,
/// one row per vocabulary id, before EmbeddingStore normalizes them.
struct SgnsVectors {
  Vocabulary vocab;
  la::Matrix in;
};

/// word2vec skip-gram with negative sampling, trained with plain SGD over
/// the corpus.
Result<SgnsVectors> TrainSgnsVectors(const Corpus& corpus,
                                     const SgnsConfig& config);

/// TrainSgnsVectors as an embedding table.
Result<EmbeddingStore> TrainSgnsEmbeddings(const Corpus& corpus,
                                           const SgnsConfig& config);

}  // namespace crew

#endif  // CREW_EMBED_SGNS_H_
