#ifndef DKINDEX_COMMON_STRING_UTIL_H_
#define DKINDEX_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dki {

// Splits `s` on `sep`, omitting empty pieces.
std::vector<std::string> StrSplit(std::string_view s, char sep);

// Joins `pieces` with `sep`.
std::string StrJoin(const std::vector<std::string>& pieces,
                    std::string_view sep);

// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view s);

// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

// Strict decimal integer parse of the ENTIRE string: optional leading '+' or
// '-', at least one digit, no other characters (not even surrounding
// whitespace), and the value must fit int64_t. Returns nullopt on any
// violation — unlike std::atoi, which silently turns garbage into 0 and
// overflow into UB. Use this for every integer that crosses a trust boundary
// (environment variables, CLI flags, file contents).
std::optional<int64_t> ParseInt64(std::string_view s);

// ParseInt64 restricted to [min, max]; nullopt if unparsable or outside.
std::optional<int64_t> ParseInt64InRange(std::string_view s, int64_t min,
                                         int64_t max);

// Strict decimal floating-point parse of the ENTIRE string, the double
// counterpart of ParseInt64: optional leading '+' or '-', a decimal or
// exponent form ("2.5", ".5", "1e-3"), no surrounding whitespace or
// trailing characters, and a finite result ("inf", "nan" and overflow are
// rejected). Locale-independent. Unlike std::atof, garbage is nullopt,
// never 0.
std::optional<double> ParseDouble(std::string_view s);

}  // namespace dki

#endif  // DKINDEX_COMMON_STRING_UTIL_H_
