#include "crew/text/string_similarity.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "crew/common/string_util.h"

namespace crew {
namespace {

// Length up to which the per-token kernels keep their work buffers on the
// stack. Tokens are far shorter; longer strings take a heap fallback.
constexpr size_t kStackLength = 64;

// `size` zero-initialized elements, on the stack when size <= N.
template <typename T, size_t N>
class StackBuffer {
 public:
  explicit StackBuffer(size_t size) : data_(stack_) {
    if (size > N) {
      heap_.resize(size);
      data_ = heap_.data();
    }
  }
  StackBuffer(const StackBuffer&) = delete;
  StackBuffer& operator=(const StackBuffer&) = delete;

  T* data() { return data_; }

 private:
  T stack_[N] = {};
  std::vector<T> heap_;
  T* data_;
};

// Largest Jaro-Winkler similarity two strings of these lengths can reach:
// every character of the shorter one matched, no transpositions, and the
// full 4-character prefix boost. Both factors only grow the score.
double JaroWinklerUpperBound(size_t n, size_t m) {
  if (n == 0 || m == 0) return n == m ? 1.0 : 0.0;
  const double s = static_cast<double>(std::min(n, m));
  const double jaro =
      (s / static_cast<double>(n) + s / static_cast<double>(m) + 1.0) / 3.0;
  return jaro + std::min(s, 4.0) * 0.1 * (1.0 - jaro);
}

// Margin by which a bound must fall below the best score before a
// candidate is skipped; far above the rounding error of either value, so
// skipping never changes the maximum.
constexpr double kBoundSlack = 1e-9;

// Bit-parallel kernels hold one bit per character position in a word.
constexpr size_t kWordBits = 64;

// For each byte value, the positions of `s` (at most kWordBits long)
// holding it. A table starts all zero; Add and Remove leave it so again.
class PositionMasks {
 public:
  void Add(std::string_view s) {
    for (size_t i = 0; i < s.size(); ++i) masks_[Byte(s[i])] |= Bit(i);
  }
  void Remove(std::string_view s) {
    for (const char c : s) masks_[Byte(c)] = 0;
  }
  uint64_t of(char c) const { return masks_[Byte(c)]; }

  static uint64_t Bit(size_t i) { return uint64_t{1} << i; }
  // Bits [0, n) for n <= kWordBits.
  static uint64_t Low(size_t n) {
    return n == kWordBits ? ~uint64_t{0} : Bit(n) - 1;
  }

 private:
  static unsigned char Byte(char c) { return static_cast<unsigned char>(c); }
  uint64_t masks_[256] = {};
};

// Jaro-Winkler from its match statistics; the one formula both kernels
// below share, so they agree to the bit.
double JaroWinklerFromMatches(std::string_view a, std::string_view b,
                              int matches, int transpositions) {
  const int n = static_cast<int>(a.size());
  const int m = static_cast<int>(b.size());
  const double mm = matches;
  const double jaro =
      (mm / n + mm / m + (mm - transpositions / 2.0) / mm) / 3.0;
  // Winkler prefix boost.
  int prefix = 0;
  for (int i = 0; i < std::min({n, m, 4}); ++i) {
    if (a[i] == b[i]) {
      ++prefix;
    } else {
      break;
    }
  }
  return jaro + prefix * 0.1 * (1.0 - jaro);
}

// JaroWinklerSimilarity for 1 <= |a|, |b| <= kWordBits, with `b_masks`
// holding b's positions. The same greedy matching (each character of `a`
// takes the first free equal character of `b` in its window), with the
// window scan done as one mask operation.
double JaroWinklerWithMasks(std::string_view a, std::string_view b,
                            const PositionMasks& b_masks) {
  const int n = static_cast<int>(a.size());
  const int m = static_cast<int>(b.size());
  const int window = std::max(0, std::max(n, m) / 2 - 1);
  uint64_t b_free = PositionMasks::Low(m);
  uint64_t a_matched = 0;
  int matches = 0;
  for (int i = 0; i < n; ++i) {
    const int lo = std::max(0, i - window);
    const int hi = std::min(m - 1, i + window);
    if (lo > hi) continue;
    const uint64_t in_window =
        PositionMasks::Low(hi + 1) & ~PositionMasks::Low(lo);
    const uint64_t candidates = b_masks.of(a[i]) & b_free & in_window;
    if (candidates == 0) continue;
    b_free ^= candidates & (~candidates + 1);  // takes the lowest one
    a_matched |= PositionMasks::Bit(i);
    ++matches;
  }
  if (matches == 0) return 0.0;
  // Pair the k-th matched character of `a` with the k-th of `b`.
  uint64_t b_matched = PositionMasks::Low(m) & ~b_free;
  int transpositions = 0;
  while (a_matched != 0) {
    if (a[std::countr_zero(a_matched)] != b[std::countr_zero(b_matched)]) {
      ++transpositions;
    }
    a_matched &= a_matched - 1;
    b_matched &= b_matched - 1;
  }
  return JaroWinklerFromMatches(a, b, matches, transpositions);
}

// Myers' bit-parallel edit distance in Hyyro's formulation, for
// 1 <= |pattern| <= kWordBits. A DP column is kept as the vertical +1 and
// -1 deltas over the pattern, so each text character costs a few word
// operations; `score` tracks the bottom cell, the exact DP distance.
int MyersDistance(std::string_view pattern, std::string_view text) {
  PositionMasks peq;
  peq.Add(pattern);
  const uint64_t last = PositionMasks::Bit(pattern.size() - 1);
  uint64_t pv = ~uint64_t{0};
  uint64_t mv = 0;
  int score = static_cast<int>(pattern.size());
  for (const char c : text) {
    const uint64_t eq = peq.of(c);
    const uint64_t xv = eq | mv;
    const uint64_t xh = (((eq & pv) + pv) ^ pv) | eq;
    uint64_t ph = mv | ~(xh | pv);
    uint64_t mh = pv & xh;
    if (ph & last) ++score;
    if (mh & last) --score;
    // The top row grows by one per text character.
    ph = (ph << 1) | 1;
    mh <<= 1;
    pv = mh | ~(xv | ph);
    mv = ph & xv;
  }
  return score;
}

int IntersectionSize(const TokenSet& a, const TokenSet& b) {
  int n = 0;
  auto i = a.begin();
  auto j = b.begin();
  while (i != a.end() && j != b.end()) {
    const int c = i->compare(*j);
    if (c < 0) {
      ++i;
    } else if (c > 0) {
      ++j;
    } else {
      ++n;
      ++i;
      ++j;
    }
  }
  return n;
}

}  // namespace

int LevenshteinDistance(std::string_view a, std::string_view b) {
  const int n = static_cast<int>(a.size());
  const int m = static_cast<int>(b.size());
  if (n == 0) return m;
  if (m == 0) return n;
  if (std::min(a.size(), b.size()) <= kWordBits) {
    return a.size() <= b.size() ? MyersDistance(a, b) : MyersDistance(b, a);
  }
  StackBuffer<int, kStackLength + 1> prev_buf(m + 1), cur_buf(m + 1);
  int* prev = prev_buf.data();
  int* cur = cur_buf.data();
  for (int j = 0; j <= m; ++j) prev[j] = j;
  for (int i = 1; i <= n; ++i) {
    cur[0] = i;
    for (int j = 1; j <= m; ++j) {
      const int cost = a[i - 1] == b[j - 1] ? 0 : 1;
      cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + cost});
    }
    std::swap(prev, cur);
  }
  return prev[m];
}

double LevenshteinSimilarity(std::string_view a, std::string_view b) {
  const size_t longest = std::max(a.size(), b.size());
  if (longest == 0) return 1.0;
  return 1.0 - static_cast<double>(LevenshteinDistance(a, b)) /
                   static_cast<double>(longest);
}

double JaroWinklerSimilarity(std::string_view a, std::string_view b) {
  const int n = static_cast<int>(a.size());
  const int m = static_cast<int>(b.size());
  if (n == 0 && m == 0) return 1.0;
  if (n == 0 || m == 0) return 0.0;
  const int window = std::max(0, std::max(n, m) / 2 - 1);
  StackBuffer<char, kStackLength> a_buf(n), b_buf(m);
  char* a_match = a_buf.data();
  char* b_match = b_buf.data();
  int matches = 0;
  for (int i = 0; i < n; ++i) {
    const int lo = std::max(0, i - window);
    const int hi = std::min(m - 1, i + window);
    for (int j = lo; j <= hi; ++j) {
      if (!b_match[j] && a[i] == b[j]) {
        a_match[i] = b_match[j] = 1;
        ++matches;
        break;
      }
    }
  }
  if (matches == 0) return 0.0;
  // Count transpositions among matched characters.
  int transpositions = 0;
  int j = 0;
  for (int i = 0; i < n; ++i) {
    if (!a_match[i]) continue;
    while (!b_match[j]) ++j;
    if (a[i] != b[j]) ++transpositions;
    ++j;
  }
  return JaroWinklerFromMatches(a, b, matches, transpositions);
}

void ToTokenSet(const std::vector<std::string>& tokens, TokenSet* out) {
  out->assign(tokens.begin(), tokens.end());
  std::sort(out->begin(), out->end());
  out->erase(std::unique(out->begin(), out->end()), out->end());
}

double JaccardSimilarity(const TokenSet& a, const TokenSet& b) {
  if (a.empty() && b.empty()) return 1.0;
  const int inter = IntersectionSize(a, b);
  const int uni = static_cast<int>(a.size() + b.size()) - inter;
  return uni == 0 ? 1.0 : static_cast<double>(inter) / uni;
}

double OverlapCoefficient(const TokenSet& a, const TokenSet& b) {
  if (a.empty() && b.empty()) return 1.0;
  if (a.empty() || b.empty()) return 0.0;
  const int inter = IntersectionSize(a, b);
  return static_cast<double>(inter) /
         static_cast<double>(std::min(a.size(), b.size()));
}

double DiceCoefficient(const TokenSet& a, const TokenSet& b) {
  if (a.empty() && b.empty()) return 1.0;
  const int inter = IntersectionSize(a, b);
  return 2.0 * inter / static_cast<double>(a.size() + b.size());
}

double JaccardSimilarity(const std::vector<std::string>& a,
                         const std::vector<std::string>& b) {
  TokenSet sa, sb;
  ToTokenSet(a, &sa);
  ToTokenSet(b, &sb);
  return JaccardSimilarity(sa, sb);
}

double OverlapCoefficient(const std::vector<std::string>& a,
                          const std::vector<std::string>& b) {
  TokenSet sa, sb;
  ToTokenSet(a, &sa);
  ToTokenSet(b, &sb);
  return OverlapCoefficient(sa, sb);
}

double DiceCoefficient(const std::vector<std::string>& a,
                       const std::vector<std::string>& b) {
  TokenSet sa, sb;
  ToTokenSet(a, &sa);
  ToTokenSet(b, &sb);
  return DiceCoefficient(sa, sb);
}

double MongeElkanSimilarity(const std::vector<std::string>& a,
                            const std::vector<std::string>& b) {
  if (a.empty() || b.empty()) return 0.0;
  // Each token of `b` is compared against every token of `a` while its
  // position masks are loaded. A maximum does not depend on the order its
  // candidates come in, and the totals are summed in `a`'s order.
  StackBuffer<double, kStackLength> best_buf(a.size());
  double* best = best_buf.data();
  PositionMasks b_masks;
  for (const auto& tb : b) {
    const bool masked = !tb.empty() && tb.size() <= kWordBits;
    if (masked) b_masks.Add(tb);
    for (size_t i = 0; i < a.size(); ++i) {
      const std::string& ta = a[i];
      // Equal tokens score exactly 1.0, which no other token can beat.
      if (best[i] == 1.0) continue;
      if (ta == tb) {
        best[i] = 1.0;
        continue;
      }
      if (JaroWinklerUpperBound(ta.size(), tb.size()) <
          best[i] - kBoundSlack) {
        continue;
      }
      const double score = masked && !ta.empty() && ta.size() <= kWordBits
                               ? JaroWinklerWithMasks(ta, tb, b_masks)
                               : JaroWinklerSimilarity(ta, tb);
      best[i] = std::max(best[i], score);
    }
    if (masked) b_masks.Remove(tb);
  }
  double total = 0.0;
  for (size_t i = 0; i < a.size(); ++i) total += best[i];
  return total / static_cast<double>(a.size());
}

double NumericSimilarity(std::string_view a, std::string_view b) {
  double x = 0.0, y = 0.0;
  if (!ParseDouble(a, &x) || !ParseDouble(b, &y) || !std::isfinite(x) ||
      !std::isfinite(y)) {
    return LevenshteinSimilarity(a, b);
  }
  const double denom = std::max(std::fabs(x), std::fabs(y));
  if (denom == 0.0) return 1.0;
  const double sim = 1.0 - std::fabs(x - y) / denom;
  return std::clamp(sim, 0.0, 1.0);
}

}  // namespace crew
