#ifndef CREW_TEXT_STRING_SIMILARITY_H_
#define CREW_TEXT_STRING_SIMILARITY_H_

#include <string>
#include <string_view>
#include <vector>

namespace crew {

/// Edit distance with unit costs.
int LevenshteinDistance(std::string_view a, std::string_view b);

/// 1 - distance / max(len); 1.0 for two empty strings.
double LevenshteinSimilarity(std::string_view a, std::string_view b);

/// Jaro-Winkler similarity in [0, 1] with the standard 0.1 prefix scale.
double JaroWinklerSimilarity(std::string_view a, std::string_view b);

/// A token list viewed as a set: its distinct tokens in byte order, as
/// views into strings the caller keeps alive.
using TokenSet = std::vector<std::string_view>;

/// Fills `out` with the set of `tokens`, reusing its capacity.
void ToTokenSet(const std::vector<std::string>& tokens, TokenSet* out);

/// |A ∩ B| / |A ∪ B| over token multisets treated as sets.
/// 1.0 when both are empty.
double JaccardSimilarity(const std::vector<std::string>& a,
                         const std::vector<std::string>& b);
double JaccardSimilarity(const TokenSet& a, const TokenSet& b);

/// |A ∩ B| / min(|A|, |B|); 1.0 when either is empty and the other too,
/// 0.0 when exactly one is empty.
double OverlapCoefficient(const std::vector<std::string>& a,
                          const std::vector<std::string>& b);
double OverlapCoefficient(const TokenSet& a, const TokenSet& b);

/// 2|A ∩ B| / (|A| + |B|).
double DiceCoefficient(const std::vector<std::string>& a,
                       const std::vector<std::string>& b);
double DiceCoefficient(const TokenSet& a, const TokenSet& b);

/// Monge-Elkan: mean over tokens of `a` of the best Jaro-Winkler match in
/// `b`. Asymmetric; 0.0 when `a` is empty.
double MongeElkanSimilarity(const std::vector<std::string>& a,
                            const std::vector<std::string>& b);

/// Relative difference similarity for numeric strings:
/// 1 - |x-y| / max(|x|, |y|), clamped to [0,1]; falls back to
/// LevenshteinSimilarity when either side does not parse as a finite
/// number ("nan" and "inf" count as text).
double NumericSimilarity(std::string_view a, std::string_view b);

}  // namespace crew

#endif  // CREW_TEXT_STRING_SIMILARITY_H_
