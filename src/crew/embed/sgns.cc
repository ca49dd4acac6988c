#include "crew/embed/sgns.h"

#include <algorithm>
#include <cmath>

#include "crew/common/rng.h"
#include "crew/la/vector_ops.h"

namespace crew {
namespace {

// Unigram^0.75 negative-sampling table (word2vec's choice).
std::vector<int> BuildNegativeTable(const Vocabulary& vocab, int table_size) {
  std::vector<double> weights(vocab.size());
  double total = 0.0;
  for (int i = 0; i < vocab.size(); ++i) {
    weights[i] = std::pow(static_cast<double>(vocab.CountOf(i)), 0.75);
    total += weights[i];
  }
  std::vector<int> table;
  table.reserve(table_size);
  int id = 0;
  double cum = weights.empty() ? 0.0 : weights[0] / total;
  for (int t = 0; t < table_size; ++t) {
    const double target = (t + 0.5) / table_size;
    while (cum < target && id + 1 < vocab.size()) {
      ++id;
      cum += weights[id] / total;
    }
    table.push_back(id);
  }
  return table;
}

// dots[k] = sum_x vin[x] * rows[k][x], each summed from 0.0 in x order,
// exactly as one serial dot product would; up to four chains run
// interleaved so their adds overlap instead of waiting on each other.
void InterleavedDots(const double* vin, const double* const* rows, int m,
                     int d, double* dots) {
  int k = 0;
  for (; k + 4 <= m; k += 4) {
    const double* r0 = rows[k];
    const double* r1 = rows[k + 1];
    const double* r2 = rows[k + 2];
    const double* r3 = rows[k + 3];
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (int x = 0; x < d; ++x) {
      s0 += vin[x] * r0[x];
      s1 += vin[x] * r1[x];
      s2 += vin[x] * r2[x];
      s3 += vin[x] * r3[x];
    }
    dots[k] = s0;
    dots[k + 1] = s1;
    dots[k + 2] = s2;
    dots[k + 3] = s3;
  }
  for (; k + 2 <= m; k += 2) {
    const double* r0 = rows[k];
    const double* r1 = rows[k + 1];
    double s0 = 0.0, s1 = 0.0;
    for (int x = 0; x < d; ++x) {
      s0 += vin[x] * r0[x];
      s1 += vin[x] * r1[x];
    }
    dots[k] = s0;
    dots[k + 1] = s1;
  }
  for (; k < m; ++k) {
    double s = 0.0;
    for (int x = 0; x < d; ++x) s += vin[x] * rows[k][x];
    dots[k] = s;
  }
}

}  // namespace

Result<SgnsVectors> TrainSgnsVectors(const Corpus& corpus,
                                     const SgnsConfig& config) {
  if (config.dim <= 0 || config.epochs <= 0 || config.negative_samples < 0) {
    return Status::InvalidArgument("TrainSgnsEmbeddings: bad configuration");
  }
  Vocabulary full;
  for (const auto& sentence : corpus) {
    for (const auto& tok : sentence) full.Add(tok);
  }
  Vocabulary vocab = full.Pruned(config.min_count);
  const int v = vocab.size();
  if (v == 0) {
    return Status::FailedPrecondition(
        "TrainSgnsEmbeddings: vocabulary empty after pruning");
  }
  const int d = config.dim;
  Rng rng(config.seed);

  // Pre-map the corpus to id sequences.
  std::vector<std::vector<int>> ids;
  ids.reserve(corpus.size());
  int64_t corpus_tokens = 0;
  for (const auto& sentence : corpus) {
    std::vector<int> s;
    s.reserve(sentence.size());
    for (const auto& tok : sentence) {
      const int id = vocab.GetId(tok);
      if (id >= 0) s.push_back(id);
    }
    corpus_tokens += static_cast<int64_t>(s.size());
    if (!s.empty()) ids.push_back(std::move(s));
  }
  if (corpus_tokens == 0) {
    return Status::FailedPrecondition("TrainSgnsEmbeddings: empty corpus");
  }

  la::Matrix in(v, d), out(v, d);
  for (int r = 0; r < v; ++r) {
    for (int c = 0; c < d; ++c) {
      in.At(r, c) = (rng.Uniform() - 0.5) / d;
      // out starts at zero (word2vec convention).
    }
  }
  // A power of two, so a negative draw is the low bits of one raw draw:
  // the same value as UniformInt(kNegTableSize), without the division.
  constexpr int kNegTableSize = 1 << 16;
  static_assert((kNegTableSize & (kNegTableSize - 1)) == 0);
  const std::vector<int> neg_table = BuildNegativeTable(vocab, kNegTableSize);

  // Subsampling keep-probability per token id.
  std::vector<double> keep(v, 1.0);
  if (config.subsample_threshold > 0.0) {
    for (int i = 0; i < v; ++i) {
      const double f = static_cast<double>(vocab.CountOf(i)) /
                       static_cast<double>(vocab.TotalCount());
      if (f > config.subsample_threshold) {
        keep[i] = std::sqrt(config.subsample_threshold / f) +
                  config.subsample_threshold / f;
        keep[i] = std::min(1.0, keep[i]);
      }
    }
  }

  const int64_t total_steps =
      static_cast<int64_t>(config.epochs) * corpus_tokens;
  int64_t step = 0;
  std::vector<double> grad_center(d);
  std::vector<int> kept;
  // One (center, context) step's targets: the context word, then the
  // negatives that differ from it, in draw order.
  const int max_targets = 1 + config.negative_samples;
  std::vector<int> targets(max_targets);
  std::vector<const double*> target_rows(max_targets);
  std::vector<double> dots(max_targets);

  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    for (const auto& sentence : ids) {
      // Apply subsampling per epoch pass.
      kept.clear();
      for (int id : sentence) {
        if (keep[id] >= 1.0 || rng.Bernoulli(keep[id])) kept.push_back(id);
      }
      const int n = static_cast<int>(kept.size());
      for (int c = 0; c < n; ++c) {
        ++step;
        const double progress =
            static_cast<double>(step) / static_cast<double>(total_steps);
        const double lr = std::max(
            1e-4, config.learning_rate * (1.0 - progress));
        const int center = kept[c];
        const int win = 1 + rng.UniformInt(config.window);  // dynamic window
        const int lo = std::max(0, c - win);
        const int hi = std::min(n - 1, c + win);
        double* vin = in.Row(center);
        for (int t = lo; t <= hi; ++t) {
          if (t == c) continue;
          // Draw every negative first: the draws do not depend on the
          // updates, so the RNG sequence is the serial loop's.
          int m = 0;
          targets[m++] = kept[t];
          for (int k = 1; k <= config.negative_samples; ++k) {
            const int target = neg_table[rng.NextRaw() & (kNegTableSize - 1)];
            if (target != kept[t]) targets[m++] = target;
          }
          // Negatives never equal the context word; check them pairwise.
          bool distinct = true;
          for (int a = 2; a < m && distinct; ++a) {
            const auto end = targets.begin() + a;
            distinct = std::find(targets.begin() + 1, end, targets[a]) == end;
          }
          std::fill(grad_center.begin(), grad_center.end(), 0.0);
          if (distinct) {
            // vin changes only after the targets, and each distinct vout
            // row only on its own turn, so every dot can be taken up front
            // and equals the serial loop's.
            for (int k = 0; k < m; ++k) target_rows[k] = out.Row(targets[k]);
            InterleavedDots(vin, target_rows.data(), m, d, dots.data());
          }
          // Positive example (k == 0), then the negatives, in draw order.
          for (int k = 0; k < m; ++k) {
            double* vout = out.Row(targets[k]);
            double dot;
            if (distinct) {
              dot = dots[k];
            } else {
              // A repeated target must see its own earlier update.
              dot = 0.0;
              for (int x = 0; x < d; ++x) dot += vin[x] * vout[x];
            }
            const double label = k == 0 ? 1.0 : 0.0;
            const double g = (la::Sigmoid(dot) - label) * lr;
            for (int x = 0; x < d; ++x) {
              grad_center[x] += g * vout[x];
              vout[x] -= g * vin[x];
            }
          }
          for (int x = 0; x < d; ++x) vin[x] -= grad_center[x];
        }
      }
    }
  }
  return SgnsVectors{std::move(vocab), std::move(in)};
}

Result<EmbeddingStore> TrainSgnsEmbeddings(const Corpus& corpus,
                                           const SgnsConfig& config) {
  auto trained = TrainSgnsVectors(corpus, config);
  if (!trained.ok()) return trained.status();
  return EmbeddingStore(std::move(trained->vocab), std::move(trained->in));
}

}  // namespace crew
