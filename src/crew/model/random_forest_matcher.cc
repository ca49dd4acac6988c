#include "crew/model/random_forest_matcher.h"

#include <algorithm>
#include <cmath>

#include "crew/common/rng.h"
#include "crew/common/trace.h"
#include "crew/model/metrics.h"

namespace crew {
namespace {

struct SplitCandidate {
  int feature = -1;
  double split = 0.0;
  double gini = 1e9;
};

double GiniImpurity(int pos, int total) {
  if (total == 0) return 0.0;
  const double p = static_cast<double>(pos) / total;
  return 2.0 * p * (1.0 - p);
}

}  // namespace

Result<std::unique_ptr<RandomForestMatcher>> RandomForestMatcher::Train(
    const Dataset& train, std::shared_ptr<const EmbeddingStore> embeddings,
    const RandomForestConfig& config) {
  if (train.empty()) {
    return Status::InvalidArgument("RandomForestMatcher: empty training set");
  }
  if (config.num_trees <= 0 || config.max_depth <= 0) {
    return Status::InvalidArgument("RandomForestMatcher: bad configuration");
  }
  PairFeaturizer featurizer(train.schema(), std::move(embeddings));
  std::vector<la::Vec> rows;
  std::vector<int> labels;
  for (const auto& pair : train.pairs()) {
    if (pair.label != 0 && pair.label != 1) continue;
    rows.push_back(featurizer.Extract(pair));
    labels.push_back(pair.label);
  }
  if (rows.empty()) {
    return Status::InvalidArgument("RandomForestMatcher: no labeled pairs");
  }
  const int n = static_cast<int>(rows.size());
  const int d = static_cast<int>(rows[0].size());
  const int mtry = config.features_per_split > 0
                       ? std::min(config.features_per_split, d)
                       : std::max(1, static_cast<int>(std::sqrt(d)));
  Rng rng(config.seed);

  std::vector<Tree> trees;
  trees.reserve(config.num_trees);

  // Recursive CART builder over an index subset.
  struct Builder {
    const std::vector<la::Vec>& rows;
    const std::vector<int>& labels;
    const RandomForestConfig& config;
    int mtry;
    int d;
    Rng& rng;
    Tree* tree;

    int Build(std::vector<int>& idx, int depth) {
      int pos = 0;
      for (int i : idx) pos += labels[i];
      Node node;
      const int node_id = static_cast<int>(tree->size());
      tree->push_back(node);
      const bool pure = pos == 0 || pos == static_cast<int>(idx.size());
      if (depth >= config.max_depth || pure ||
          static_cast<int>(idx.size()) < 2 * config.min_samples_leaf) {
        (*tree)[node_id].leaf_value =
            static_cast<double>(pos) / static_cast<double>(idx.size());
        return node_id;
      }
      // Pick the best split over a random feature subset.
      SplitCandidate best;
      std::vector<int> features = rng.SampleIndices(d, mtry);
      std::vector<std::pair<double, int>> sorted;
      for (int f : features) {
        sorted.clear();
        for (int i : idx) sorted.push_back({rows[i][f], labels[i]});
        std::sort(sorted.begin(), sorted.end());
        int left_pos = 0;
        const int total = static_cast<int>(sorted.size());
        int total_pos = 0;
        for (auto& [v, l] : sorted) total_pos += l;
        for (int k = 0; k + 1 < total; ++k) {
          left_pos += sorted[k].second;
          if (sorted[k].first == sorted[k + 1].first) continue;
          const int left_n = k + 1;
          const int right_n = total - left_n;
          if (left_n < config.min_samples_leaf ||
              right_n < config.min_samples_leaf) {
            continue;
          }
          const double gini =
              (left_n * GiniImpurity(left_pos, left_n) +
               right_n * GiniImpurity(total_pos - left_pos, right_n)) /
              total;
          if (gini < best.gini) {
            best.gini = gini;
            best.feature = f;
            best.split = (sorted[k].first + sorted[k + 1].first) / 2.0;
          }
        }
      }
      if (best.feature < 0) {
        (*tree)[node_id].leaf_value =
            static_cast<double>(pos) / static_cast<double>(idx.size());
        return node_id;
      }
      std::vector<int> left_idx, right_idx;
      for (int i : idx) {
        (rows[i][best.feature] < best.split ? left_idx : right_idx)
            .push_back(i);
      }
      // Midpoints of near-adjacent doubles can round onto one of the two
      // values, emptying a child; fall back to a leaf in that case.
      if (left_idx.empty() || right_idx.empty()) {
        (*tree)[node_id].leaf_value =
            static_cast<double>(pos) / static_cast<double>(idx.size());
        return node_id;
      }
      idx.clear();
      idx.shrink_to_fit();
      const int left_id = Build(left_idx, depth + 1);
      const int right_id = Build(right_idx, depth + 1);
      (*tree)[node_id].feature = best.feature;
      (*tree)[node_id].split = best.split;
      (*tree)[node_id].left = left_id;
      (*tree)[node_id].right = right_id;
      return node_id;
    }
  };

  for (int t = 0; t < config.num_trees; ++t) {
    // Bootstrap sample.
    std::vector<int> idx(n);
    for (int i = 0; i < n; ++i) idx[i] = rng.UniformInt(n);
    Tree tree;
    Builder builder{rows, labels, config, mtry, d, rng, &tree};
    builder.Build(idx, 0);
    trees.push_back(std::move(tree));
  }

  auto matcher = std::unique_ptr<RandomForestMatcher>(new RandomForestMatcher(
      std::move(featurizer), std::move(trees), /*threshold=*/0.5));
  std::vector<double> scores(n);
  for (int i = 0; i < n; ++i) scores[i] = matcher->PredictFeatures(rows[i]);
  matcher->threshold_ = BestF1Threshold(scores, labels);
  return matcher;
}

double RandomForestMatcher::PredictTree(const Tree& tree, const la::Vec& x) {
  int node = 0;
  while (tree[node].feature >= 0) {
    node = x[tree[node].feature] < tree[node].split ? tree[node].left
                                                    : tree[node].right;
  }
  return tree[node].leaf_value;
}

double RandomForestMatcher::PredictFeatures(const la::Vec& x) const {
  double sum = 0.0;
  for (const auto& tree : trees_) sum += PredictTree(tree, x);
  return trees_.empty() ? 0.5 : sum / static_cast<double>(trees_.size());
}

double RandomForestMatcher::PredictProba(const RecordPair& pair) const {
  return PredictFeatures(featurizer_.Extract(pair));
}

void RandomForestMatcher::PredictProbaBatch(const RecordPair* pairs,
                                            size_t count, double* out) const {
  CREW_TRACE_SPAN("matcher/forest");
  la::Vec x;
  for (size_t i = 0; i < count; ++i) {
    featurizer_.ExtractInto(pairs[i], &x);
    out[i] = PredictFeatures(x);
  }
}

}  // namespace crew
