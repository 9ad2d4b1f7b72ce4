// Unit tests for the common substrate: RNG, statistics, formatting, checks.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

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

}  // namespace
