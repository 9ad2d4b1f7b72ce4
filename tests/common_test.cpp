// Unit tests for the common substrate: RNG, statistics, formatting, checks.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/codec.hpp"
#include "common/error.hpp"
#include "common/format.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/types.hpp"

namespace {

using namespace cello;

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_LT(same, 2);
}

TEST(Rng, BoundedStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const u64 v = rng.bounded(17);
    EXPECT_LT(v, 17u);
  }
}

TEST(Rng, BoundedCoversRange) {
  Rng rng(3);
  std::set<u64> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.bounded(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    const double u = rng.uniform(-2.5, 4.0);
    EXPECT_GE(u, -2.5);
    EXPECT_LT(u, 4.0);
  }
}

TEST(Stats, Geomean) {
  const std::vector<double> xs = {1.0, 2.0, 4.0};
  EXPECT_NEAR(geomean(xs), 2.0, 1e-12);
}

TEST(Stats, GeomeanRejectsNonPositive) {
  const std::vector<double> xs = {1.0, 0.0};
  EXPECT_THROW(geomean(xs), Error);
}

TEST(Stats, EmptyThrows) {
  const std::vector<double> xs;
  EXPECT_THROW(geomean(xs), Error);
}

TEST(Format, Bytes) {
  EXPECT_EQ(format_bytes(512), "512.00 B");
  EXPECT_EQ(format_bytes(1536), "1.50 KiB");
  EXPECT_EQ(format_bytes(4.0 * 1024 * 1024), "4.00 MiB");
}

TEST(Format, Rate) {
  EXPECT_EQ(format_rate(2.5e9, "FLOP/s"), "2.50 GFLOP/s");
  EXPECT_EQ(format_rate(999.0, "op/s"), "999.00 op/s");
}

TEST(Format, Sci) {
  EXPECT_EQ(format_sci(80.0), "1.0e+80");
  EXPECT_EQ(format_sci(15.3, 1), "2.0e+15");
}

TEST(Format, TableAlignsAndValidates) {
  TextTable t({"a", "long_header"});
  t.add_row({"x", "1"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| a "), std::string::npos);
  EXPECT_NE(s.find("long_header"), std::string::npos);
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Check, ThrowsWithContext) {
  try {
    CELLO_CHECK_MSG(1 == 2, "custom " << 42);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("custom 42"), std::string::npos);
  }
}

TEST(Types, CeilDivAndLiterals) {
  EXPECT_EQ(ceil_div<i64>(10, 3), 4);
  EXPECT_EQ(ceil_div<i64>(9, 3), 3);
  EXPECT_EQ(4_KiB, 4096u);
  EXPECT_EQ(2_MiB, 2u * 1024 * 1024);
}

// ---- codec ------------------------------------------------------------------

TEST(Codec, JsonEscapeNamesQuotesBackslashesAndControlBytes) {
  EXPECT_EQ(json_escape("plain \xc3\xa9"), "plain \xc3\xa9");  // UTF-8 passes through
  EXPECT_EQ(json_escape("a\"b\\c\n\r\t"), "a\\\"b\\\\c\\n\\r\\t");
  EXPECT_EQ(json_escape(std::string("\x01\x1f\0", 3)), "\\u0001\\u001f\\u0000");
}

TEST(Codec, HexU64RoundTripsAndRejectsLooseText) {
  for (const u64 v : {u64{0}, u64{1}, u64{0xaea8eddcc0f88eb3ull}, ~u64{0}}) {
    const std::string text = hex_u64(v);
    EXPECT_EQ(text.size(), 18u) << text;
    EXPECT_EQ(parse_hex_u64(text), v) << text;
  }
  EXPECT_EQ(hex_u64(0xaea8eddcc0f88eb3ull), "0xaea8eddcc0f88eb3");
  EXPECT_EQ(parse_hex_u64("0xAEA8EDDCC0F88EB3"), 0xaea8eddcc0f88eb3ull);
  for (const char* bad :
       {"", "0x", "aea8eddcc0f88eb3", "0Xaea8eddcc0f88eb3", "0xaea8eddcc0f88eb",
        "0xaea8eddcc0f88eb30", "0x-000000000000001", "0x+000000000000001",
        "0x 000000000000001", "0x0x00000000000001", "0x000000000000000g"})
    EXPECT_FALSE(parse_hex_u64(bad)) << bad;
}

TEST(Codec, DecimalIsDigitsOnlyAndOverflowChecked) {
  EXPECT_EQ(parse_decimal_u64("0"), 0u);
  EXPECT_EQ(parse_decimal_u64("007"), 7u);
  EXPECT_EQ(parse_decimal_u64("18446744073709551615"), ~u64{0});
  for (const char* bad : {"", "-1", "+1", " 1", "1 ", "1x", "0x10", "1.0", "1e3",
                          "18446744073709551616", "99999999999999999999"})
    EXPECT_FALSE(parse_decimal_u64(bad)) << bad;
}

TEST(Codec, Fnv1aMatchesPublishedVectorsAndStreams) {
  EXPECT_EQ(fnv1a(""), kFnv1aBasis);
  EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a("foobar"), 0x85944171f73967e8ull);
  EXPECT_EQ(fnv1a("bar", fnv1a("foo")), fnv1a("foobar"));
}

}  // namespace
