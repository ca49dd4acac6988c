#include "crew/text/string_similarity.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <unordered_set>

#include "crew/common/rng.h"

namespace crew {
namespace {

TEST(LevenshteinTest, KnownDistances) {
  EXPECT_EQ(LevenshteinDistance("kitten", "sitting"), 3);
  EXPECT_EQ(LevenshteinDistance("", "abc"), 3);
  EXPECT_EQ(LevenshteinDistance("abc", ""), 3);
  EXPECT_EQ(LevenshteinDistance("same", "same"), 0);
  EXPECT_EQ(LevenshteinDistance("flaw", "lawn"), 2);
}

TEST(LevenshteinTest, SimilarityNormalization) {
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("abc", "abc"), 1.0);
  EXPECT_DOUBLE_EQ(LevenshteinSimilarity("abc", "xyz"), 0.0);
  EXPECT_NEAR(LevenshteinSimilarity("kitten", "sitting"), 1.0 - 3.0 / 7.0,
              1e-12);
}

TEST(JaroWinklerTest, KnownValues) {
  EXPECT_DOUBLE_EQ(JaroWinklerSimilarity("", ""), 1.0);
  EXPECT_DOUBLE_EQ(JaroWinklerSimilarity("a", ""), 0.0);
  EXPECT_DOUBLE_EQ(JaroWinklerSimilarity("abc", "abc"), 1.0);
  // Classic reference value: MARTHA / MARHTA = 0.9611.
  EXPECT_NEAR(JaroWinklerSimilarity("martha", "marhta"), 0.9611, 1e-3);
  EXPECT_NEAR(JaroWinklerSimilarity("dixon", "dicksonx"), 0.8133, 1e-3);
}

TEST(TokenSetSimilarityTest, JaccardOverlapDice) {
  const std::vector<std::string> a = {"red", "wireless", "mouse"};
  const std::vector<std::string> b = {"wireless", "mouse", "pad", "pad"};
  EXPECT_NEAR(JaccardSimilarity(a, b), 2.0 / 4.0, 1e-12);
  EXPECT_NEAR(OverlapCoefficient(a, b), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(DiceCoefficient(a, b), 2.0 * 2.0 / 6.0, 1e-12);
}

TEST(TokenSetSimilarityTest, EmptyConventions) {
  const std::vector<std::string> e;
  const std::vector<std::string> x = {"a"};
  EXPECT_DOUBLE_EQ(JaccardSimilarity(e, e), 1.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity(e, x), 0.0);
  EXPECT_DOUBLE_EQ(OverlapCoefficient(e, e), 1.0);
  EXPECT_DOUBLE_EQ(OverlapCoefficient(e, x), 0.0);
  EXPECT_DOUBLE_EQ(DiceCoefficient(e, e), 1.0);
  EXPECT_DOUBLE_EQ(MongeElkanSimilarity(e, x), 0.0);
}

TEST(MongeElkanTest, RewardsNearMatches) {
  const std::vector<std::string> a = {"jonathan", "smith"};
  const std::vector<std::string> exact = {"jonathan", "smith"};
  const std::vector<std::string> typo = {"jonathon", "smyth"};
  const std::vector<std::string> other = {"qqq", "zzz"};
  EXPECT_DOUBLE_EQ(MongeElkanSimilarity(a, exact), 1.0);
  EXPECT_GT(MongeElkanSimilarity(a, typo), 0.8);
  EXPECT_GT(MongeElkanSimilarity(a, typo), MongeElkanSimilarity(a, other));
}

TEST(NumericSimilarityTest, RelativeDifference) {
  EXPECT_DOUBLE_EQ(NumericSimilarity("100", "100"), 1.0);
  EXPECT_NEAR(NumericSimilarity("100", "50"), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(NumericSimilarity("0", "0"), 1.0);
  EXPECT_DOUBLE_EQ(NumericSimilarity("-10", "10"), 0.0);  // clamped
}

TEST(NumericSimilarityTest, FallsBackToLevenshtein) {
  EXPECT_DOUBLE_EQ(NumericSimilarity("abc", "abc"), 1.0);
  EXPECT_NEAR(NumericSimilarity("v100", "v200"),
              LevenshteinSimilarity("v100", "v200"), 1e-12);
}

TEST(NumericSimilarityTest, NonFiniteValuesAreText) {
  // strtod parses these; as numbers they would make the feature NaN.
  const char* cases[][2] = {{"nan", "nan"}, {"inf", "5"},
                            {"5", "-inf"},  {"NaN", "12.5"},
                            {"infinity", "inf"}};
  for (const auto& c : cases) {
    const double sim = NumericSimilarity(c[0], c[1]);
    EXPECT_FALSE(std::isnan(sim)) << c[0] << " vs " << c[1];
    EXPECT_EQ(sim, LevenshteinSimilarity(c[0], c[1]))
        << c[0] << " vs " << c[1];
  }
  // Finite extremes still compare numerically and stay in range.
  EXPECT_EQ(NumericSimilarity("1e308", "-1e308"), 0.0);
}

// Reference copies of the original kernels (hash sets, vector<bool>
// match flags, no pruning). The optimized versions must reproduce them to
// the bit.
namespace reference {

int LevenshteinDistance(std::string_view a, std::string_view b) {
  const int n = static_cast<int>(a.size());
  const int m = static_cast<int>(b.size());
  if (n == 0) return m;
  if (m == 0) return n;
  std::vector<int> prev(m + 1), cur(m + 1);
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

double JaroWinklerSimilarity(std::string_view a, std::string_view b) {
  const int n = static_cast<int>(a.size());
  const int m = static_cast<int>(b.size());
  if (n == 0 && m == 0) return 1.0;
  if (n == 0 || m == 0) return 0.0;
  const int window = std::max(0, std::max(n, m) / 2 - 1);
  std::vector<bool> a_match(n, false), b_match(m, false);
  int matches = 0;
  for (int i = 0; i < n; ++i) {
    const int lo = std::max(0, i - window);
    const int hi = std::min(m - 1, i + window);
    for (int j = lo; j <= hi; ++j) {
      if (!b_match[j] && a[i] == b[j]) {
        a_match[i] = b_match[j] = true;
        ++matches;
        break;
      }
    }
  }
  if (matches == 0) return 0.0;
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

std::unordered_set<std::string_view> ToSet(const std::vector<std::string>& v) {
  return {v.begin(), v.end()};
}

int IntersectionSize(const std::unordered_set<std::string_view>& a,
                     const std::unordered_set<std::string_view>& b) {
  int n = 0;
  // crew-lint: allow(unordered-iter): order-independent integer count.
  for (const auto& t : a) n += static_cast<int>(b.count(t));
  return n;
}

double JaccardSimilarity(const std::vector<std::string>& a,
                         const std::vector<std::string>& b) {
  const auto sa = ToSet(a), sb = ToSet(b);
  if (sa.empty() && sb.empty()) return 1.0;
  const int inter = IntersectionSize(sa, sb);
  const int uni = static_cast<int>(sa.size() + sb.size()) - inter;
  return uni == 0 ? 1.0 : static_cast<double>(inter) / uni;
}

double OverlapCoefficient(const std::vector<std::string>& a,
                          const std::vector<std::string>& b) {
  const auto sa = ToSet(a), sb = ToSet(b);
  if (sa.empty() && sb.empty()) return 1.0;
  if (sa.empty() || sb.empty()) return 0.0;
  const int inter = IntersectionSize(sa, sb);
  return static_cast<double>(inter) /
         static_cast<double>(std::min(sa.size(), sb.size()));
}

double DiceCoefficient(const std::vector<std::string>& a,
                       const std::vector<std::string>& b) {
  const auto sa = ToSet(a), sb = ToSet(b);
  if (sa.empty() && sb.empty()) return 1.0;
  const int inter = IntersectionSize(sa, sb);
  return 2.0 * inter / static_cast<double>(sa.size() + sb.size());
}

double MongeElkanSimilarity(const std::vector<std::string>& a,
                            const std::vector<std::string>& b) {
  if (a.empty() || b.empty()) return 0.0;
  double total = 0.0;
  for (const auto& ta : a) {
    double best = 0.0;
    for (const auto& tb : b) {
      best = std::max(best, JaroWinklerSimilarity(ta, tb));
    }
    total += best;
  }
  return total / static_cast<double>(a.size());
}

}  // namespace reference

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

// Random token: mostly short, over a small alphabet (so tokens repeat and
// nearly match), sometimes longer than the kernels' 64-byte stack buffers.
std::string RandomToken(Rng& rng) {
  const int len = rng.Bernoulli(0.1) ? rng.UniformInt(60, 200)
                                     : rng.UniformInt(1, 10);
  std::string s;
  for (int i = 0; i < len; ++i) {
    s.push_back(static_cast<char>('a' + rng.UniformInt(5)));
  }
  return s;
}

// Random token list (possibly empty) drawn with replacement from `pool`,
// so lists carry duplicates and share tokens with each other.
std::vector<std::string> RandomTokens(Rng& rng,
                                      const std::vector<std::string>& pool) {
  std::vector<std::string> tokens(rng.UniformInt(0, 8));
  for (auto& t : tokens) t = pool[rng.UniformInt(static_cast<int>(pool.size()))];
  return tokens;
}

class SimilarityExactnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SimilarityExactnessTest, StringKernelsMatchReferenceBitForBit) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 300; ++trial) {
    const std::string a = RandomToken(rng);
    const std::string b = rng.Bernoulli(0.2) ? a : RandomToken(rng);
    EXPECT_EQ(LevenshteinDistance(a, b), reference::LevenshteinDistance(a, b))
        << a << " vs " << b;
    EXPECT_EQ(Bits(JaroWinklerSimilarity(a, b)),
              Bits(reference::JaroWinklerSimilarity(a, b)))
        << a << " vs " << b;
  }
}

TEST_P(SimilarityExactnessTest, TokenListMeasuresMatchReferenceBitForBit) {
  Rng rng(GetParam());
  std::vector<std::string> pool(12);
  for (auto& t : pool) t = RandomToken(rng);
  for (int trial = 0; trial < 300; ++trial) {
    const auto a = RandomTokens(rng, pool);
    const auto b = RandomTokens(rng, pool);
    EXPECT_EQ(Bits(JaccardSimilarity(a, b)),
              Bits(reference::JaccardSimilarity(a, b)));
    EXPECT_EQ(Bits(OverlapCoefficient(a, b)),
              Bits(reference::OverlapCoefficient(a, b)));
    EXPECT_EQ(Bits(DiceCoefficient(a, b)),
              Bits(reference::DiceCoefficient(a, b)));
    EXPECT_EQ(Bits(MongeElkanSimilarity(a, b)),
              Bits(reference::MongeElkanSimilarity(a, b)));
    TokenSet sa, sb;
    ToTokenSet(a, &sa);
    ToTokenSet(b, &sb);
    EXPECT_TRUE(std::is_sorted(sa.begin(), sa.end()));
    EXPECT_EQ(sa.size(), reference::ToSet(a).size());
    EXPECT_EQ(Bits(JaccardSimilarity(sa, sb)),
              Bits(reference::JaccardSimilarity(a, b)));
  }
}

// Strings around the 64-character word of the bit-parallel kernels, over
// a small alphabet that includes bytes above 127.
std::string WordBoundaryString(Rng& rng) {
  static const char kAlphabet[] = {'a', 'b', 'c', '\xe9', '\xff'};
  const int len = rng.Bernoulli(0.5) ? rng.UniformInt(0, 8)
                                     : rng.UniformInt(56, 72);
  std::string s;
  for (int i = 0; i < len; ++i) s.push_back(kAlphabet[rng.UniformInt(5)]);
  return s;
}

TEST_P(SimilarityExactnessTest, WordBoundaryLengthsMatchReferenceBitForBit) {
  Rng rng(GetParam());
  std::vector<std::string> pool(10);
  for (auto& t : pool) t = WordBoundaryString(rng);
  for (int trial = 0; trial < 300; ++trial) {
    const std::string a = WordBoundaryString(rng);
    const std::string b = WordBoundaryString(rng);
    EXPECT_EQ(LevenshteinDistance(a, b), reference::LevenshteinDistance(a, b))
        << a.size() << " vs " << b.size();
    EXPECT_EQ(Bits(JaroWinklerSimilarity(a, b)),
              Bits(reference::JaroWinklerSimilarity(a, b)));
    const auto ta = RandomTokens(rng, pool);
    const auto tb = RandomTokens(rng, pool);
    EXPECT_EQ(Bits(MongeElkanSimilarity(ta, tb)),
              Bits(reference::MongeElkanSimilarity(ta, tb)));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimilarityExactnessTest,
                         ::testing::Values(11, 12, 13, 14, 15, 16, 17, 18));

// Property sweep: all similarities stay in [0,1] and are symmetric for
// random short strings.
class SimilarityPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SimilarityPropertyTest, BoundedAndSymmetric) {
  Rng rng(GetParam());
  auto random_token = [&] {
    std::string s;
    const int len = rng.UniformInt(0, 8);
    for (int i = 0; i < len; ++i) {
      s.push_back(static_cast<char>('a' + rng.UniformInt(4)));
    }
    return s;
  };
  for (int trial = 0; trial < 50; ++trial) {
    const std::string a = random_token(), b = random_token();
    for (double sim : {LevenshteinSimilarity(a, b),
                       JaroWinklerSimilarity(a, b), NumericSimilarity(a, b)}) {
      EXPECT_GE(sim, 0.0) << a << " vs " << b;
      EXPECT_LE(sim, 1.0) << a << " vs " << b;
    }
    EXPECT_DOUBLE_EQ(LevenshteinSimilarity(a, b), LevenshteinSimilarity(b, a));
    EXPECT_DOUBLE_EQ(JaroWinklerSimilarity(a, b), JaroWinklerSimilarity(b, a));

    std::vector<std::string> ta, tb;
    for (int i = 0; i < 4; ++i) {
      ta.push_back(random_token());
      tb.push_back(random_token());
    }
    EXPECT_DOUBLE_EQ(JaccardSimilarity(ta, tb), JaccardSimilarity(tb, ta));
    EXPECT_DOUBLE_EQ(DiceCoefficient(ta, tb), DiceCoefficient(tb, ta));
    const double j = JaccardSimilarity(ta, tb);
    EXPECT_GE(j, 0.0);
    EXPECT_LE(j, 1.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimilarityPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace crew
