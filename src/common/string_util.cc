#include "common/string_util.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <limits>
#include <system_error>

namespace dki {

std::vector<std::string> StrSplit(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) pos = s.size();
    if (pos > start) out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string StrJoin(const std::vector<std::string>& pieces,
                    std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i != 0) out.append(sep);
    out.append(pieces[i]);
  }
  return out;
}

std::string_view StripWhitespace(std::string_view s) {
  size_t b = 0;
  while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  size_t e = s.size();
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::optional<int64_t> ParseInt64(std::string_view s) {
  size_t i = 0;
  bool negative = false;
  if (i < s.size() && (s[i] == '+' || s[i] == '-')) {
    negative = s[i] == '-';
    ++i;
  }
  if (i >= s.size()) return std::nullopt;  // empty or sign-only
  // Accumulate negatively: |INT64_MIN| > INT64_MAX, so the negative range
  // covers both signs without overflowing before the final negation.
  int64_t value = 0;
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  for (; i < s.size(); ++i) {
    char c = s[i];
    if (c < '0' || c > '9') return std::nullopt;
    int digit = c - '0';
    if (value < (kMin + digit) / 10) return std::nullopt;  // would overflow
    value = value * 10 - digit;
  }
  if (!negative) {
    if (value == kMin) return std::nullopt;  // +9223372036854775808
    value = -value;
  }
  return value;
}

std::optional<int64_t> ParseInt64InRange(std::string_view s, int64_t min,
                                         int64_t max) {
  std::optional<int64_t> v = ParseInt64(s);
  if (!v.has_value() || *v < min || *v > max) return std::nullopt;
  return v;
}

std::optional<double> ParseDouble(std::string_view s) {
  // std::from_chars takes no leading '+'; accept one as ParseInt64 does.
  if (!s.empty() && s.front() == '+') {
    s.remove_prefix(1);
    if (!s.empty() && s.front() == '-') return std::nullopt;
  }
  double value = 0;
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value)) {
    return std::nullopt;
  }
  return value;
}

}  // namespace dki
