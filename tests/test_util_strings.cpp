// Tests for util/strings.hpp: parsing strictness and formatting round-trips.

#include "relap/util/strings.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace relap::util {
namespace {

TEST(Trim, Basics) {
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim("a"), "a");
  EXPECT_EQ(trim("  a b  "), "a b");
  EXPECT_EQ(trim("\t x \t"), "x");
}

TEST(SplitWs, SkipsRuns) {
  EXPECT_TRUE(split_ws("").empty());
  EXPECT_TRUE(split_ws("   ").empty());
  const auto tokens = split_ws("  a \t b   c ");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0], "a");
  EXPECT_EQ(tokens[1], "b");
  EXPECT_EQ(tokens[2], "c");
}

TEST(Split, KeepsEmptyTokens) {
  const auto tokens = split("a,,b,", ',');
  ASSERT_EQ(tokens.size(), 4u);
  EXPECT_EQ(tokens[0], "a");
  EXPECT_EQ(tokens[1], "");
  EXPECT_EQ(tokens[2], "b");
  EXPECT_EQ(tokens[3], "");
}

TEST(ParseDouble, StrictWholeToken) {
  EXPECT_EQ(parse_double("1.5"), 1.5);
  EXPECT_EQ(parse_double("-2"), -2.0);
  EXPECT_EQ(parse_double("1e3"), 1000.0);
  EXPECT_FALSE(parse_double("1.5x").has_value());
  EXPECT_FALSE(parse_double("").has_value());
  EXPECT_FALSE(parse_double("abc").has_value());
  EXPECT_FALSE(parse_double("1.5 ").has_value());
}

TEST(ParseSize, StrictNonNegativeInteger) {
  EXPECT_EQ(parse_size("0"), 0u);
  EXPECT_EQ(parse_size("42"), 42u);
  EXPECT_FALSE(parse_size("-1").has_value());
  EXPECT_FALSE(parse_size("1.5").has_value());
  EXPECT_FALSE(parse_size("").has_value());
  EXPECT_FALSE(parse_size("4x").has_value());
}

TEST(FormatFixed, Decimals) {
  EXPECT_EQ(format_fixed(1.23456, 2), "1.23");
  EXPECT_EQ(format_fixed(1.0, 3), "1.000");
  EXPECT_EQ(format_fixed(-0.5, 1), "-0.5");
}

TEST(FormatDouble, RoundTripsThroughParse) {
  for (const double v : {0.0, 1.0, -1.5, 0.1, 105.0, 1e-9, 123456.789, 0.64}) {
    const auto parsed = parse_double(format_double(v));
    ASSERT_TRUE(parsed.has_value()) << format_double(v);
    EXPECT_DOUBLE_EQ(*parsed, v);
  }
}

// The wire and instance files carry these exact bytes: %g-style notation at
// the fewest significant digits that round-trip, integers below 1e15 bare.
TEST(FormatDouble, PinsShortestGeneralNotation) {
  EXPECT_EQ(format_double(0.0001), "0.0001");
  EXPECT_EQ(format_double(1e-5), "1e-05");
  EXPECT_EQ(format_double(1e15), "1e+15");
  EXPECT_EQ(format_double(999999999999999.0), "999999999999999");
  EXPECT_EQ(format_double(-1e15), "-1e+15");
  EXPECT_EQ(format_double(5e-324), "5e-324");
  EXPECT_EQ(format_double(-0.0), "0");
  EXPECT_EQ(format_double(-1.5), "-1.5");
  EXPECT_EQ(format_double(0.1 + 0.2), "0.30000000000000004");
  EXPECT_EQ(format_double(123456.789), "123456.789");
  EXPECT_EQ(format_double(1e300), "1e+300");
  EXPECT_EQ(format_double(std::numeric_limits<double>::infinity()), "inf");
}

TEST(Join, Basics) {
  EXPECT_EQ(join({}, ", "), "");
  EXPECT_EQ(join({"a"}, ", "), "a");
  EXPECT_EQ(join({"a", "b", "c"}, "-"), "a-b-c");
}

}  // namespace
}  // namespace relap::util
