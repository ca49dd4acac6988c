#include "crew/text/string_similarity.h"

#include <algorithm>
#include <cmath>

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
  const double mm = matches;
  const double jaro = (mm / n + mm / m + (mm - transpositions / 2.0) / mm) / 3.0;
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
  double total = 0.0;
  for (const auto& ta : a) {
    double best = 0.0;
    for (const auto& tb : b) {
      // Equal tokens score exactly 1.0, which no other token can beat.
      if (ta == tb) {
        best = 1.0;
        break;
      }
      if (JaroWinklerUpperBound(ta.size(), tb.size()) < best - kBoundSlack) {
        continue;
      }
      best = std::max(best, JaroWinklerSimilarity(ta, tb));
    }
    total += best;
  }
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
