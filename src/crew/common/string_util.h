#ifndef CREW_COMMON_STRING_UTIL_H_
#define CREW_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace crew {

/// Returns `s` lower-cased (ASCII only).
std::string AsciiLower(std::string_view s);

/// Splits `s` on `sep`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

/// Splits `s` on any run of ASCII whitespace, dropping empty fields.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view s);

/// Returns true if `s` starts with / ends with `prefix` / `suffix`.
bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// printf-style formatting into a std::string.
std::string StrPrintf(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Escapes a string for inclusion in a JSON document (quotes, backslashes,
/// control characters). The one escaper every CREW JSON writer uses.
std::string JsonEscape(const std::string& s);

/// Parses a double / int / unsigned 64-bit integer; returns false on
/// malformed input, trailing junk or overflow. Surrounding whitespace is
/// ignored. ParseUint64 refuses any sign, so "-1" never wraps. These are
/// the project's only number parsers (crew-lint `lenient-number-parse`).
bool ParseDouble(std::string_view s, double* out);
bool ParseInt(std::string_view s, int* out);
bool ParseUint64(std::string_view s, uint64_t* out);

}  // namespace crew

#endif  // CREW_COMMON_STRING_UTIL_H_
