#include "crew/model/features.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>

#include "crew/common/dcheck.h"
#include "crew/text/string_similarity.h"

namespace crew {
namespace {

// Levenshtein on long free text is quadratic; above this length fall back
// to a token-level proxy so perturbation loops stay fast.
constexpr size_t kMaxLevenshteinLength = 48;

// Memo entries per scratch: about one perturbation block's worth. Peak
// memory grows with the cap (per featurizing thread, see ExtractInto), and
// 256 entries scored perturbation blocks no faster than 64 (values that
// miss mostly never repeat).
constexpr size_t kMemoEntries = 64;

double TypeSpecificSimilarity(AttributeType type, std::string_view a,
                              std::string_view b, const TokenSet& ta,
                              const TokenSet& tb) {
  switch (type) {
    case AttributeType::kNumeric:
      return NumericSimilarity(a, b);
    case AttributeType::kCategorical:
    case AttributeType::kText:
      if (a.size() <= kMaxLevenshteinLength &&
          b.size() <= kMaxLevenshteinLength) {
        return LevenshteinSimilarity(a, b);
      }
      return DiceCoefficient(ta, tb);
  }
  return 0.0;
}

uint64_t NextFeaturizerId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

uint64_t AttributeKeyHash(int a, std::string_view va, std::string_view vb) {
  const std::hash<std::string_view> hash;
  uint64_t h = hash(va);
  h ^= hash(vb) + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h ^ static_cast<uint64_t>(a);
}

// Sorts and de-duplicates a concatenation of token sets into their union.
void SortUnique(TokenSet* set) {
  std::sort(set->begin(), set->end());
  set->erase(std::unique(set->begin(), set->end()), set->end());
}

}  // namespace

// One memoized attribute: the key, its tokens (the sets view into them, so
// an entry is never copied or moved once filled) and its features.
struct PairFeaturizer::Scratch::Entry {
  uint64_t hash = 0;
  uint64_t last_use = 0;
  int attribute = -1;
  std::string left_value, right_value;
  std::vector<std::string> left_tokens, right_tokens;
  TokenSet left_set, right_set;
  double features[kPerAttribute] = {};
};

PairFeaturizer::Scratch::Scratch() = default;
PairFeaturizer::Scratch::~Scratch() = default;

PairFeaturizer::PairFeaturizer(Schema schema,
                               std::shared_ptr<const EmbeddingStore> embeddings,
                               Tokenizer tokenizer)
    : schema_(std::move(schema)),
      embeddings_(std::move(embeddings)),
      tokenizer_(tokenizer),
      id_(NextFeaturizerId()) {}

int PairFeaturizer::FeatureCount() const {
  return schema_.size() * kPerAttribute + kGlobal;
}

std::vector<std::string> PairFeaturizer::FeatureNames() const {
  std::vector<std::string> names;
  for (int a = 0; a < schema_.size(); ++a) {
    const std::string& attr = schema_.name(a);
    names.push_back(attr + "_jaccard");
    names.push_back(attr + "_overlap");
    names.push_back(attr + "_monge_elkan");
    names.push_back(attr + "_emb_cosine");
    names.push_back(attr + "_typed_sim");
  }
  names.push_back("all_jaccard");
  names.push_back("all_overlap");
  names.push_back("log_length_ratio");
  return names;
}

la::Vec PairFeaturizer::Extract(const RecordPair& pair) const {
  la::Vec features;
  ExtractInto(pair, &features);
  return features;
}

void PairFeaturizer::ExtractInto(const RecordPair& pair, la::Vec* out) const {
  // One memo per featurizing thread, kept across calls: consecutive scoring
  // calls for one pair repeat most attribute values. Nothing featurizes
  // from inside ExtractInto, so the scratch is never re-entered.
  thread_local Scratch scratch;
  thread_local bool in_use = false;
  CREW_DCHECK(!in_use);
  in_use = true;
  ExtractInto(pair, &scratch, out);
  in_use = false;
}

void PairFeaturizer::ExtractInto(const RecordPair& pair, Scratch* scratch,
                                 la::Vec* out) const {
  CREW_CHECK(static_cast<int>(pair.left.values.size()) == schema_.size());
  CREW_CHECK(static_cast<int>(pair.right.values.size()) == schema_.size());
  if (scratch->owner_ != id_) {
    scratch->memo_.clear();
    scratch->owner_ = id_;
  }
  la::Vec& features = *out;
  features.resize(FeatureCount());

  // Views into this pair's memo entries. An entry used earlier in the pair
  // is never the eviction victim (see LookupAttribute), so they stay valid.
  TokenSet& all_left = scratch->all_left_;
  TokenSet& all_right = scratch->all_right_;
  all_left.clear();
  all_right.clear();
  size_t left_count = 0, right_count = 0;
  for (int a = 0; a < schema_.size(); ++a) {
    const Scratch::Entry& entry = LookupAttribute(
        a, pair.left.values[a], pair.right.values[a], scratch);
    std::copy(entry.features, entry.features + kPerAttribute,
              features.begin() + a * kPerAttribute);
    all_left.insert(all_left.end(), entry.left_set.begin(),
                    entry.left_set.end());
    all_right.insert(all_right.end(), entry.right_set.begin(),
                     entry.right_set.end());
    left_count += entry.left_tokens.size();
    right_count += entry.right_tokens.size();
  }
  SortUnique(&all_left);
  SortUnique(&all_right);

  double* global = features.data() + schema_.size() * kPerAttribute;
  global[0] = JaccardSimilarity(all_left, all_right);
  global[1] = OverlapCoefficient(all_left, all_right);
  const double la = static_cast<double>(left_count) + 1.0;
  const double lb = static_cast<double>(right_count) + 1.0;
  global[2] = std::log(la / lb);
}

const PairFeaturizer::Scratch::Entry& PairFeaturizer::LookupAttribute(
    int a, std::string_view va, std::string_view vb, Scratch* scratch) const {
  const uint64_t hash = AttributeKeyHash(a, va, vb);
  const uint64_t now = ++scratch->clock_;
  std::vector<std::unique_ptr<Scratch::Entry>>& memo = scratch->memo_;
  size_t victim = 0;
  for (size_t i = 0; i < memo.size(); ++i) {
    Scratch::Entry& e = *memo[i];
    if (e.hash == hash && e.attribute == a && e.left_value == va &&
        e.right_value == vb) {
      e.last_use = now;
      return e;
    }
    if (e.last_use < memo[victim]->last_use) victim = i;
  }
  // Miss: fill a new entry while below capacity, else evict the least
  // recently used one. The capacity covers a whole pair, so the victim is
  // never an entry this pair already looked up.
  const size_t capacity =
      std::max(kMemoEntries, static_cast<size_t>(schema_.size()));
  if (memo.size() < capacity) {
    memo.push_back(std::make_unique<Scratch::Entry>());
    victim = memo.size() - 1;
  }
  Scratch::Entry& e = *memo[victim];
  CREW_DCHECK(e.last_use + static_cast<uint64_t>(a) < now);
  e.hash = hash;
  e.last_use = now;
  e.attribute = a;
  e.left_value.assign(va);
  e.right_value.assign(vb);
  ComputeAttribute(a, va, vb, scratch, &e);
  return e;
}

void PairFeaturizer::ComputeAttribute(int a, std::string_view va,
                                      std::string_view vb, Scratch* scratch,
                                      Scratch::Entry* entry) const {
  tokenizer_.TokenizeInto(va, &entry->left_tokens);
  tokenizer_.TokenizeInto(vb, &entry->right_tokens);
  ToTokenSet(entry->left_tokens, &entry->left_set);
  ToTokenSet(entry->right_tokens, &entry->right_set);
  double* f = entry->features;
  f[0] = JaccardSimilarity(entry->left_set, entry->right_set);
  f[1] = OverlapCoefficient(entry->left_set, entry->right_set);
  f[2] = MongeElkanSimilarity(entry->left_tokens, entry->right_tokens);
  if (embeddings_ != nullptr) {
    embeddings_->MeanVectorInto(entry->left_tokens, &scratch->mean_left_);
    embeddings_->MeanVectorInto(entry->right_tokens, &scratch->mean_right_);
    f[3] = la::Cosine(scratch->mean_left_, scratch->mean_right_);
  } else {
    f[3] = 0.0;
  }
  f[4] = TypeSpecificSimilarity(schema_.type(a), va, vb, entry->left_set,
                                entry->right_set);
}

void FeatureScaler::Fit(const std::vector<la::Vec>& rows) {
  CREW_CHECK(!rows.empty());
  const size_t d = rows[0].size();
  mean_.assign(d, 0.0);
  inv_std_.assign(d, 1.0);
  for (const auto& row : rows) {
    CREW_CHECK(row.size() == d);
    for (size_t i = 0; i < d; ++i) mean_[i] += row[i];
  }
  for (size_t i = 0; i < d; ++i) mean_[i] /= static_cast<double>(rows.size());
  la::Vec var(d, 0.0);
  for (const auto& row : rows) {
    for (size_t i = 0; i < d; ++i) {
      var[i] += (row[i] - mean_[i]) * (row[i] - mean_[i]);
    }
  }
  for (size_t i = 0; i < d; ++i) {
    const double sd = std::sqrt(var[i] / static_cast<double>(rows.size()));
    inv_std_[i] = sd > 1e-9 ? 1.0 / sd : 1.0;
  }
}

la::Vec FeatureScaler::Transform(const la::Vec& row) const {
  la::Vec out = row;
  TransformInPlace(&out);
  return out;
}

void FeatureScaler::TransformInPlace(la::Vec* row) const {
  CREW_CHECK(fitted());
  CREW_CHECK(row->size() == mean_.size());
  for (size_t i = 0; i < row->size(); ++i) {
    (*row)[i] = ((*row)[i] - mean_[i]) * inv_std_[i];
  }
}

}  // namespace crew
