#ifndef CREW_EMBED_EMBEDDING_STORE_H_
#define CREW_EMBED_EMBEDDING_STORE_H_

#include <string>
#include <string_view>
#include <vector>

#include "crew/la/matrix.h"
#include "crew/text/vocabulary.h"

namespace crew {

/// Immutable word-vector table: a vocabulary plus one row per token.
///
/// This is the only interface the rest of the system (matchers, CREW's
/// semantic affinity) sees; how the vectors were trained (SGNS) is
/// irrelevant downstream.
class EmbeddingStore {
 public:
  EmbeddingStore() = default;

  /// Takes ownership of `vocab` and `vectors` (vectors.rows() == vocab.size()).
  EmbeddingStore(Vocabulary vocab, la::Matrix vectors);

  int dim() const { return vectors_.cols(); }
  int size() const { return vocab_.size(); }

  const Vocabulary& vocab() const { return vocab_; }

  /// True if `token` has a vector.
  bool Contains(std::string_view token) const {
    return vocab_.GetId(token) >= 0;
  }

  /// Vector for `token`; the zero vector for OOV tokens.
  la::Vec Lookup(std::string_view token) const;

  /// Cosine similarity of two tokens; 0 if either is OOV.
  double Similarity(std::string_view a, std::string_view b) const;

  /// Row id of `token`, or -1 when OOV. Ids are stable handles into the
  /// table; hot loops (EmbeddingBagMatcher's batch encoder) resolve each
  /// distinct token once and use the id-based accessors below, skipping
  /// the per-call hash lookups.
  int TokenId(std::string_view token) const { return vocab_.GetId(token); }

  /// Similarity by row ids; 0 if either id is negative (OOV). Identical
  /// floating-point operations to Similarity on the same tokens.
  double SimilarityById(int a, int b) const;

  /// MeanVectorInto over pre-resolved ids (negative ids = OOV, skipped).
  /// Bit-identical to MeanVectorInto on the tokens the ids came from.
  void MeanVectorOfIdsInto(const std::vector<int>& ids, la::Vec* out) const;

  /// Mean of the vectors of `tokens` (OOV tokens skipped). Zero vector when
  /// nothing is in vocabulary.
  la::Vec MeanVector(const std::vector<std::string>& tokens) const;

  /// MeanVector writing into `out` (resized to dim()), so batch scoring
  /// loops can reuse the buffer instead of allocating per pair.
  void MeanVectorInto(const std::vector<std::string>& tokens,
                      la::Vec* out) const;

  /// The `k` nearest tokens to `token` by cosine (excluding itself).
  std::vector<std::pair<std::string, double>> NearestNeighbors(
      std::string_view token, int k) const;

 private:
  Vocabulary vocab_;
  la::Matrix vectors_;  // L2-normalized rows
};

}  // namespace crew

#endif  // CREW_EMBED_EMBEDDING_STORE_H_
