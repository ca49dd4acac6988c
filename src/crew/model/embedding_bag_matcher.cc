#include "crew/model/embedding_bag_matcher.h"

#include <algorithm>
#include <cmath>

#include "crew/common/logging.h"
#include "crew/common/rng.h"
#include "crew/common/trace.h"
#include "crew/la/vector_ops.h"
#include "crew/model/metrics.h"

namespace crew {
namespace {

// Resolves tokens to embedding rows through the scratch's persistent
// cache; each distinct token hits the vocabulary hash at most once per
// scratch lifetime (i.e. once per perturbation batch).
void ResolveIds(const EmbeddingStore& embeddings,
                const std::vector<std::string>& tokens,
                std::unordered_map<std::string, int>* cache,
                std::vector<int>* ids) {
  ids->clear();
  ids->reserve(tokens.size());
  for (const auto& tok : tokens) {
    auto it = cache->find(tok);
    if (it == cache->end()) {
      it = cache->emplace(tok, embeddings.TokenId(tok)).first;
    }
    ids->push_back(it->second);
  }
}

void EncodePairInto(const Schema& schema, const EmbeddingStore& embeddings,
                    const Tokenizer& tokenizer, const RecordPair& pair,
                    EmbeddingBagMatcher::EncodeScratch* scratch, la::Vec* out) {
  const int dim = embeddings.dim();
  la::Vec& x = *out;
  x.clear();
  x.reserve(static_cast<size_t>(schema.size()) * (2 * dim + 2));
  std::vector<std::string>& left_tokens = scratch->left_tokens;
  std::vector<std::string>& right_tokens = scratch->right_tokens;
  std::vector<int>& left_ids = scratch->left_ids;
  std::vector<int>& right_ids = scratch->right_ids;
  la::Vec& l = scratch->left_mean;
  la::Vec& r = scratch->right_mean;
  for (int a = 0; a < schema.size(); ++a) {
    tokenizer.TokenizeInto(pair.left.values[a], &left_tokens);
    tokenizer.TokenizeInto(pair.right.values[a], &right_tokens);
    ResolveIds(embeddings, left_tokens, &scratch->token_ids, &left_ids);
    ResolveIds(embeddings, right_tokens, &scratch->token_ids, &right_ids);
    embeddings.MeanVectorOfIdsInto(left_ids, &l);
    embeddings.MeanVectorOfIdsInto(right_ids, &r);
    for (int c = 0; c < dim; ++c) x.push_back(std::fabs(l[c] - r[c]));
    for (int c = 0; c < dim; ++c) x.push_back(l[c] * r[c]);
    // Two scalar interactions that sharpen the blurry mean-pooled signal:
    // cosine of the attribute encodings and the fraction of the attribute's
    // tokens whose best counterpart vector is (near-)identical.
    x.push_back(la::Cosine(l, r));
    double aligned = 0.0;
    if (!left_tokens.empty() && !right_tokens.empty()) {
      int hits = 0;
      for (size_t li = 0; li < left_ids.size(); ++li) {
        double best = -1.0;
        for (size_t ri = 0; ri < right_ids.size(); ++ri) {
          double sim;
          if (left_ids[li] >= 0 && right_ids[ri] >= 0) {
            // In-vocabulary: equal ids <=> equal tokens.
            sim = left_ids[li] == right_ids[ri]
                      ? 1.0
                      : embeddings.SimilarityById(left_ids[li], right_ids[ri]);
          } else {
            // OOV on either side: Similarity would return 0, so only the
            // exact-string match can score.
            sim = left_tokens[li] == right_tokens[ri] ? 1.0 : 0.0;
          }
          best = std::max(best, sim);
        }
        if (best > 0.95) ++hits;
      }
      aligned = static_cast<double>(hits) /
                static_cast<double>(left_tokens.size());
    }
    x.push_back(aligned);
  }
}

// sums[i] = b1[i] + sum_j w1t(j, i) * x[j], each sum accumulated in j
// order (see EmbeddingBagNet).
void HiddenSums(const la::Matrix& w1t, const la::Vec& b1, const la::Vec& x,
                la::Vec* sums) {
  const int d = w1t.rows();
  const int h = w1t.cols();
  sums->assign(b1.begin(), b1.end());
  double* s = sums->data();
  for (int j = 0; j < d; ++j) {
    const double* col = w1t.Row(j);
    const double xj = x[j];
    for (int i = 0; i < h; ++i) s[i] += col[i] * xj;
  }
}

}  // namespace

EmbeddingBagNet EmbeddingBagNet::Train(const std::vector<la::Vec>& rows,
                                       const std::vector<int>& labels,
                                       const EmbeddingBagConfig& config) {
  CREW_CHECK(!rows.empty());
  const int n = static_cast<int>(rows.size());
  const int d = static_cast<int>(rows[0].size());
  const int h = config.hidden_units;
  Rng rng(config.seed);
  EmbeddingBagNet net;
  net.w1t = la::Matrix(d, h);
  net.b1.assign(h, 0.0);
  net.w2.assign(h, 0.0);
  const double init = 1.0 / std::sqrt(static_cast<double>(d));
  for (int i = 0; i < h; ++i) {
    for (int j = 0; j < d; ++j) net.w1t.At(j, i) = rng.Uniform(-init, init);
    net.w2[i] = rng.Uniform(-0.5, 0.5) / std::sqrt(static_cast<double>(h));
  }

  std::vector<int> order(n);
  for (int i = 0; i < n; ++i) order[i] = i;
  la::Vec hidden(h), delta_hidden(h);
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    rng.Shuffle(order);
    const double lr =
        config.learning_rate / (1.0 + 0.05 * static_cast<double>(epoch));
    // The first example's hidden sums start the epoch; every later
    // example's are accumulated by the previous example's weight update.
    HiddenSums(net.w1t, net.b1, rows[order[0]], &hidden);
    for (int k = 0; k < n; ++k) {
      const int idx = order[k];
      const la::Vec& x = rows[idx];
      for (int i = 0; i < h; ++i) hidden[i] = std::tanh(hidden[i]);
      const double p = la::Sigmoid(la::Dot(net.w2, hidden) + net.b2);
      const double err = p - labels[idx];
      for (int i = 0; i < h; ++i) {
        delta_hidden[i] = err * net.w2[i] * (1.0 - hidden[i] * hidden[i]);
      }
      for (int i = 0; i < h; ++i) {
        net.w2[i] -= lr * (err * hidden[i] + config.l2 * net.w2[i]);
        net.b1[i] -= lr * delta_hidden[i];
      }
      // Element-wise, so updating by input column is the same arithmetic
      // as updating by unit row. Within the epoch the next example is
      // known, so one pass over w1t both updates column j and adds its
      // updated weights into the next example's sums, which start from the
      // updated b1 and add their terms in input order, as HiddenSums does.
      // The last example's pass fills sums nobody reads: the next epoch
      // reshuffles and starts over.
      const la::Vec& next = rows[order[std::min(k + 1, n - 1)]];
      const double* dh = delta_hidden.data();
      const double l2 = config.l2;
      hidden.assign(net.b1.begin(), net.b1.end());
      double* s = hidden.data();
      for (int j = 0; j < d; ++j) {
        double* col = net.w1t.Row(j);
        const double xj = x[j];
        const double nj = next[j];
        for (int i = 0; i < h; ++i) {
          col[i] -= lr * (dh[i] * xj + l2 * col[i]);
          s[i] += col[i] * nj;
        }
      }
      net.b2 -= lr * err;
    }
  }
  return net;
}

double EmbeddingBagNet::Forward(const la::Vec& x, la::Vec* sums) const {
  HiddenSums(w1t, b1, x, sums);
  double z = b2;
  for (size_t i = 0; i < w2.size(); ++i) z += w2[i] * std::tanh((*sums)[i]);
  return la::Sigmoid(z);
}

Result<std::unique_ptr<EmbeddingBagMatcher>> EmbeddingBagMatcher::Train(
    const Dataset& train, std::shared_ptr<const EmbeddingStore> embeddings,
    const EmbeddingBagConfig& config) {
  if (train.empty()) {
    return Status::InvalidArgument("EmbeddingBagMatcher: empty training set");
  }
  if (embeddings == nullptr) {
    return Status::InvalidArgument(
        "EmbeddingBagMatcher: embeddings are required");
  }
  Tokenizer tokenizer;
  const Schema& schema = train.schema();
  std::vector<la::Vec> rows;
  std::vector<int> labels;
  EmbeddingBagMatcher::EncodeScratch scratch;
  la::Vec encoded;
  for (const auto& pair : train.pairs()) {
    if (pair.label != 0 && pair.label != 1) continue;
    EncodePairInto(schema, *embeddings, tokenizer, pair, &scratch, &encoded);
    rows.push_back(encoded);
    labels.push_back(pair.label);
  }
  if (rows.empty()) {
    return Status::InvalidArgument("EmbeddingBagMatcher: no labeled pairs");
  }

  auto matcher = std::unique_ptr<EmbeddingBagMatcher>(new EmbeddingBagMatcher(
      schema, embeddings, tokenizer,
      EmbeddingBagNet::Train(rows, labels, config), /*threshold=*/0.5));
  std::vector<double> scores(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    scores[i] = matcher->net_.Forward(rows[i], &scratch.hidden);
  }
  matcher->threshold_ = BestF1Threshold(scores, labels);
  return matcher;
}

void EmbeddingBagMatcher::EncodeInto(const RecordPair& pair,
                                     EncodeScratch* scratch, la::Vec* x) const {
  EncodePairInto(schema_, *embeddings_, tokenizer_, pair, scratch, x);
}

double EmbeddingBagMatcher::PredictProba(const RecordPair& pair) const {
  EncodeScratch scratch;
  la::Vec x;
  EncodeInto(pair, &scratch, &x);
  return net_.Forward(x, &scratch.hidden);
}

void EmbeddingBagMatcher::PredictProbaBatch(const RecordPair* pairs,
                                            size_t count, double* out) const {
  CREW_TRACE_SPAN("matcher/embedding_bag");
  EncodeScratch scratch;
  la::Vec x;
  for (size_t i = 0; i < count; ++i) {
    EncodeInto(pairs[i], &scratch, &x);
    out[i] = net_.Forward(x, &scratch.hidden);
  }
}

}  // namespace crew
