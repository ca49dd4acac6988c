#ifndef CREW_MODEL_FEATURES_H_
#define CREW_MODEL_FEATURES_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "crew/data/record.h"
#include "crew/data/schema.h"
#include "crew/embed/embedding_store.h"
#include "crew/la/vector_ops.h"
#include "crew/text/string_similarity.h"
#include "crew/text/tokenizer.h"

namespace crew {

/// Magellan-style attribute-similarity featurizer for record pairs.
///
/// Per attribute: Jaccard, overlap coefficient, Monge-Elkan, embedding
/// cosine of the attribute's mean word vector, and a type-specific feature
/// (numeric relative similarity for kNumeric, Levenshtein for short values).
/// Plus three pair-global features (all-token Jaccard, overlap, log length
/// ratio). Every feature is a function of the surviving tokens, so dropping
/// a token perturbs the feature vector — the property perturbation-based
/// explainers rely on.
class PairFeaturizer {
 public:
  /// Reusable state for ExtractInto: work buffers plus a memo of
  /// per-attribute results. An attribute's features and tokens are a pure
  /// function of (featurizer, attribute, left value, right value), and
  /// perturbed variants of one pair repeat most attribute values, so
  /// repeats are served from the memo. The memo holds a fixed, small
  /// number of entries and binds to one featurizer: a scratch passed to a
  /// different featurizer drops it first. Extract and the two-argument
  /// ExtractInto use one scratch per thread that lives as long as the
  /// thread; an explicit scratch must not be shared between threads.
  class Scratch {
   public:
    // Out of line: Entry is complete only in features.cc.
    Scratch();
    ~Scratch();

   private:
    friend class PairFeaturizer;
    struct Entry;

    uint64_t owner_ = 0;  // id of the featurizer the memo belongs to
    uint64_t clock_ = 0;  // lookup counter; entries record their last use
    std::vector<std::unique_ptr<Entry>> memo_;
    TokenSet all_left_, all_right_;
    la::Vec mean_left_, mean_right_;
  };

  /// `embeddings` may be null; embedding-cosine features are then 0.
  PairFeaturizer(Schema schema,
                 std::shared_ptr<const EmbeddingStore> embeddings,
                 Tokenizer tokenizer = Tokenizer());

  int FeatureCount() const;
  std::vector<std::string> FeatureNames() const;

  la::Vec Extract(const RecordPair& pair) const;

  /// Extract writing into `out` (resized to FeatureCount()) through the
  /// calling thread's scratch, whose memo carries over from earlier calls
  /// on that thread. Bit-identical to Extract.
  void ExtractInto(const RecordPair& pair, la::Vec* out) const;

  /// ExtractInto with all intermediate buffers drawn from `scratch`.
  /// Bit-identical to Extract.
  void ExtractInto(const RecordPair& pair, Scratch* scratch,
                   la::Vec* out) const;

  const Schema& schema() const { return schema_; }

 private:
  static constexpr int kPerAttribute = 5;
  static constexpr int kGlobal = 3;

  /// The memo entry for attribute `a` holding (va, vb), computed on a miss.
  const Scratch::Entry& LookupAttribute(int a, std::string_view va,
                                        std::string_view vb,
                                        Scratch* scratch) const;
  void ComputeAttribute(int a, std::string_view va, std::string_view vb,
                        Scratch* scratch, Scratch::Entry* entry) const;

  Schema schema_;
  std::shared_ptr<const EmbeddingStore> embeddings_;
  Tokenizer tokenizer_;
  /// Unique per constructed featurizer (copies share it, as they share
  /// every input of the features); keys the scratch memo's binding.
  uint64_t id_;
};

/// Z-score standardizer fitted on training features; keeps matcher training
/// numerically well-behaved. Constant features are passed through unchanged.
class FeatureScaler {
 public:
  void Fit(const std::vector<la::Vec>& rows);
  la::Vec Transform(const la::Vec& row) const;
  /// Standardizes `row` in place (batch scoring hot loop; no allocation).
  void TransformInPlace(la::Vec* row) const;
  bool fitted() const { return !mean_.empty(); }

 private:
  la::Vec mean_;
  la::Vec inv_std_;
};

}  // namespace crew

#endif  // CREW_MODEL_FEATURES_H_
