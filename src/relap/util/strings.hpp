#pragma once

/// \file strings.hpp
/// Minimal string helpers shared by the instance parser and CSV writers.

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace relap::util {

/// Removes leading/trailing whitespace.
[[nodiscard]] std::string_view trim(std::string_view s);

/// Splits on any run of spaces/tabs; never returns empty tokens.
[[nodiscard]] std::vector<std::string_view> split_ws(std::string_view s);

/// Splits on a single character delimiter; keeps empty tokens.
[[nodiscard]] std::vector<std::string_view> split(std::string_view s, char delim);

/// Strict double parser: the whole token must be consumed.
[[nodiscard]] std::optional<double> parse_double(std::string_view token);

/// Strict non-negative integer parser.
[[nodiscard]] std::optional<std::size_t> parse_size(std::string_view token);

/// Fixed-notation formatting with the given number of decimals.
[[nodiscard]] std::string format_fixed(double value, int decimals);

/// Shortest round-trip representation used in instance files and on the
/// wire: %g notation at the fewest significant digits that parse back to
/// `value`, and integers below 1e15 in magnitude without an exponent.
[[nodiscard]] std::string format_double(double value);

/// Joins tokens with a separator.
[[nodiscard]] std::string join(const std::vector<std::string>& tokens, std::string_view sep);

}  // namespace relap::util
