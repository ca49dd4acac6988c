#ifndef CREW_MODEL_EMBEDDING_BAG_MATCHER_H_
#define CREW_MODEL_EMBEDDING_BAG_MATCHER_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "crew/common/status.h"
#include "crew/data/dataset.h"
#include "crew/embed/embedding_store.h"
#include "crew/la/matrix.h"
#include "crew/model/matcher.h"
#include "crew/text/tokenizer.h"

namespace crew {

struct EmbeddingBagConfig {
  int hidden_units = 24;
  int epochs = 80;
  double learning_rate = 0.05;
  double l2 = 1e-4;
  uint64_t seed = 23;
};

/// The matcher's network: one tanh hidden layer and a sigmoid output,
/// trained by per-example SGD. The hidden weights are stored column-major
/// (`w1t` is d x h; w1t.At(j, i) is unit i's weight on input j), so the
/// hidden sums run across units in the inner loop, which vectorizes, while
/// every unit still adds its d terms in input order. Training and Forward
/// are therefore bit-identical to row-major dot products.
struct EmbeddingBagNet {
  la::Matrix w1t;
  la::Vec b1;
  la::Vec w2;
  double b2 = 0.0;

  /// SGD on `rows` (labels 0/1) for config.epochs epochs, in an order
  /// shuffled by config.seed. `rows` must be non-empty and equally sized.
  static EmbeddingBagNet Train(const std::vector<la::Vec>& rows,
                               const std::vector<int>& labels,
                               const EmbeddingBagConfig& config);

  /// P(match) of the encoded pair `x`; `sums` is a reusable buffer for the
  /// hidden-layer sums.
  double Forward(const la::Vec& x, la::Vec* sums) const;
};

/// Deep-learning-style matcher working directly on word vectors:
/// each attribute is encoded as the mean embedding of its tokens; the pair
/// representation concatenates per-attribute [|l - r|, l ⊙ r, cos(l, r),
/// aligned-token fraction] interaction
/// vectors; a tanh hidden layer + sigmoid produces P(match).
///
/// This is the closest stand-in for the BERT/DeepMatcher models the paper
/// explains: its decision depends on every individual word through the
/// embedding average, with no hand-crafted similarity features.
class EmbeddingBagMatcher : public Matcher {
 public:
  static Result<std::unique_ptr<EmbeddingBagMatcher>> Train(
      const Dataset& train, std::shared_ptr<const EmbeddingStore> embeddings,
      const EmbeddingBagConfig& config = EmbeddingBagConfig());

  double PredictProba(const RecordPair& pair) const override;
  using Matcher::PredictProbaBatch;
  void PredictProbaBatch(const RecordPair* pairs, size_t count,
                         double* out) const override;
  double threshold() const override { return threshold_; }
  std::string Name() const override { return "embedding_bag"; }

  /// Reusable buffers for EncodeInto (see PairFeaturizer::Scratch). The
  /// token -> embedding-row cache persists across the scratch's lifetime:
  /// a perturbation batch re-encodes hundreds of variants of one pair, so
  /// after the first variant almost every token resolves from the cache
  /// and the aligned-fraction loop runs on ids (no hashing) only.
  ///
  /// Iteration-order audit (crew-lint unordered-iter): `token_ids` is
  /// lookup-only (ResolveIds probes it per token in token order); encoded
  /// features are laid out by schema attribute and token position, so
  /// hash-bucket order never reaches the feature vector.
  struct EncodeScratch {
    std::vector<std::string> left_tokens, right_tokens;
    std::vector<int> left_ids, right_ids;
    std::unordered_map<std::string, int> token_ids;
    la::Vec left_mean, right_mean;
    la::Vec hidden;  ///< EmbeddingBagNet::Forward's hidden-layer sums
  };

 private:
  EmbeddingBagMatcher(Schema schema,
                      std::shared_ptr<const EmbeddingStore> embeddings,
                      Tokenizer tokenizer, EmbeddingBagNet net,
                      double threshold)
      : schema_(std::move(schema)), embeddings_(std::move(embeddings)),
        tokenizer_(tokenizer), net_(std::move(net)), threshold_(threshold) {}

  /// Pair -> interaction vector of size schema.size() * (2 * dim + 2).
  void EncodeInto(const RecordPair& pair, EncodeScratch* scratch,
                  la::Vec* x) const;

  Schema schema_;
  std::shared_ptr<const EmbeddingStore> embeddings_;
  Tokenizer tokenizer_;
  EmbeddingBagNet net_;
  double threshold_;
};

}  // namespace crew

#endif  // CREW_MODEL_EMBEDDING_BAG_MATCHER_H_
