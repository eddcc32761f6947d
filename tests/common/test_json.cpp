// Byte-identity oracle for the JSON number formatter: json_number must
// print exactly what printf("%.17g") prints, for every binary64 class, so
// swapping the formatter can never change a golden, journal or response
// byte.
#include "common/jsonfmt.hpp"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>

#include "common/json.hpp"

namespace ipass {
namespace {

std::string printf_17g(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double from_bits(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// splitmix64: a fixed, seeded stream independent of the library's RNGs.
std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

TEST(JsonNumber, MatchesPrintfOnSpecialValues) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double specials[] = {
      0.0,        -0.0,     1.0,      -1.0,    0.1,      1.0 / 3.0,
      1e21,       1e-7,     123456789012345678.0,
      4.9406564584124654e-324,    // min denormal
      -4.9406564584124654e-324,
      2.2250738585072009e-308,    // max denormal
      DBL_MIN,    -DBL_MIN, DBL_MAX,  -DBL_MAX, DBL_EPSILON,
      inf,        -inf,     nan,      -nan,
  };
  for (const double v : specials) {
    EXPECT_EQ(json_number(v), printf_17g(v)) << "bits differ for " << printf_17g(v);
  }
}

TEST(JsonNumber, MatchesPrintfOnAMillionSeededDoubles) {
  std::uint64_t state = 20001017;
  std::size_t mismatches = 0;
  std::string first_mismatch;
  for (int i = 0; i < 1000000; ++i) {
    const std::uint64_t r = splitmix64(state);
    // Even draws: raw bit patterns (every exponent, denormals, inf and
    // NaN payloads).  Odd draws: the magnitudes cost reports actually
    // carry, a uniform mantissa scaled by 10^[-12, 12].
    const double v =
        i % 2 == 0 ? from_bits(r)
                   : static_cast<double>(r >> 11) * 0x1.0p-53 *
                         std::pow(10.0, static_cast<int>(r % 25) - 12);
    const std::string got = json_number(v);
    const std::string want = printf_17g(v);
    if (got != want && mismatches++ == 0) first_mismatch = got + " vs " + want;
  }
  EXPECT_EQ(mismatches, 0U) << "first: " << first_mismatch;
}

TEST(JsonNumber, AppendFormsExtendTheBuffer) {
  std::string out = "[";
  append_json_number(out, 0.5);
  append_json_field(out, ", ", -0.1);
  out += "]";
  EXPECT_EQ(out, "[0.5, -0.10000000000000001]");
}

TEST(JsonNumber, FiniteOutputRoundTripsThroughTheParser) {
  std::uint64_t state = 7;
  for (int i = 0; i < 10000; ++i) {
    const double v = from_bits(splitmix64(state));
    if (!std::isfinite(v)) continue;
    const JsonValue parsed = parse_json(json_number(v), "test");
    ASSERT_EQ(parsed.type, JsonValue::Type::Number);
    EXPECT_EQ(std::memcmp(&parsed.number, &v, sizeof(v)), 0) << json_number(v);
  }
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControlChars) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c\nd\te\x01"), "a\\\"b\\\\c\\nd\\te\\u0001");
  std::string out = "\"";
  append_json_escaped(out, "x\"y");
  EXPECT_EQ(out, "\"x\\\"y");
}

}  // namespace
}  // namespace ipass
