#include "relap/util/strings.hpp"

#include <charconv>
#include <cstdio>

namespace relap::util {

namespace {
bool is_ws(char c) { return c == ' ' || c == '\t' || c == '\r' || c == '\n'; }
}  // namespace

std::string_view trim(std::string_view s) {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end && is_ws(s[begin])) ++begin;
  while (end > begin && is_ws(s[end - 1])) --end;
  return s.substr(begin, end - begin);
}

std::vector<std::string_view> split_ws(std::string_view s) {
  std::vector<std::string_view> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && is_ws(s[i])) ++i;
    const std::size_t start = i;
    while (i < s.size() && !is_ws(s[i])) ++i;
    if (i > start) out.push_back(s.substr(start, i - start));
  }
  return out;
}

std::vector<std::string_view> split(std::string_view s, char delim) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::optional<double> parse_double(std::string_view token) {
  double value = 0.0;
  const char* begin = token.data();
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

std::optional<std::size_t> parse_size(std::string_view token) {
  std::size_t value = 0;
  const char* begin = token.data();
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

std::string format_fixed(double value, int decimals) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.*f", decimals, value);
  return buffer;
}

std::string format_double(double value) {
  char buffer[64];
  // Small integers print as integers ("100", not "1e+02"): instance files
  // and describe() strings are read by humans first.
  if (value > -1e15 && value < 1e15 &&
      value == static_cast<double>(static_cast<long long>(value))) {
    return std::string(
        buffer, std::to_chars(buffer, buffer + sizeof buffer, static_cast<long long>(value)).ptr);
  }
  // The fewest significant digits (in %g notation) that still round-trip;
  // values that never do (NaN) print at 17 digits.
  char* end = buffer;
  for (int precision = 1; precision <= 17; ++precision) {
    end = std::to_chars(buffer, buffer + sizeof buffer, value, std::chars_format::general,
                        precision)
              .ptr;
    double reparsed = 0.0;
    std::from_chars(buffer, end, reparsed);
    if (reparsed == value) break;
  }
  return std::string(buffer, end);
}

}  // namespace relap::util
