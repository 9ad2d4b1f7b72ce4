// Tests for the intra-op mapping cost model: the oracle baseline the
// paper's Best Intra-layer configuration assumes must actually be reachable
// by a tile search when (and only when) the small tensor fits on chip.
#include <gtest/gtest.h>

#include "mem/roofline.hpp"
#include "score/intraop.hpp"

namespace {

using namespace cello;
using score::GemmMapping;
using score::GemmShape;

TEST(IntraOp, OracleFormulaMatchesEq3) {
  const GemmShape s{512, 512, 512, 4};
  EXPECT_DOUBLE_EQ(score::oracle_words(s), 3.0 * 512 * 512);
  EXPECT_NEAR(score::oracle_intensity_ops_per_word(s), 512.0 / 3.0, 1e-9);
}

TEST(IntraOp, SkewedIntensityApproachesNOver2) {
  // Eq. 4: K/M -> 0 with K == N gives N/2 ops/word.
  const GemmShape s{524288, 16, 16, 4};
  EXPECT_NEAR(score::oracle_intensity_ops_per_word(s), 16.0 / 2.0, 0.01);
}

TEST(IntraOp, UntiledContractionSpillsPartialSums) {
  // With the output tiled as well, slicing the contraction forces partial-sum
  // spills: every k-tile re-reads and re-writes the output tile.
  const GemmShape s{64, 64, 64, 4};
  const GemmMapping bad{8, 1, 64};   // 64 partial-sum rounds per output tile
  const GemmMapping good{8, 64, 64};  // full contraction per output tile
  EXPECT_GT(score::dram_words(s, bad), score::dram_words(s, good));
}

TEST(IntraOp, ResidentOutputAbsorbsPartialSums) {
  // ...but if the whole output stays on chip, k-tiling costs nothing.
  const GemmShape s{64, 64, 64, 4};
  EXPECT_DOUBLE_EQ(score::dram_words(s, {64, 1, 64}), score::dram_words(s, {64, 64, 64}));
}

TEST(IntraOp, MappingFitCheck) {
  const GemmShape s{1024, 1024, 1024, 4};
  EXPECT_TRUE((GemmMapping{16, 16, 16}.fits(s, 4096)));    // 768 words
  EXPECT_FALSE((GemmMapping{64, 64, 64}.fits(s, 4096)));   // 12288 words
}

class MappingSearchTest : public ::testing::TestWithParam<GemmShape> {};

TEST_P(MappingSearchTest, SearchNeverBeatsOracle) {
  const auto r = score::search_best_mapping(GetParam(), 4ull << 20);
  EXPECT_GE(r.best_words, r.oracle * 0.999);
  EXPECT_GT(r.mappings_evaluated, 0);
}

TEST_P(MappingSearchTest, BestMappingRespectsCapacity) {
  const auto& s = GetParam();
  const auto r = score::search_best_mapping(s, 4ull << 20);
  EXPECT_TRUE(r.best.fits(s, 4ull << 20)) << r.best.to_string();
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MappingSearchTest,
    ::testing::Values(GemmShape{512, 512, 512, 4},      // regular
                      GemmShape{524288, 16, 16, 4},     // CG-skewed
                      GemmShape{784, 512, 128, 2},      // ResNet conv
                      GemmShape{2708, 1433, 7, 4}),     // GCN transform
    [](const ::testing::TestParamInfo<GemmShape>& info) {
      // Built by append: "m" + to_string trips g++ 12's -Wrestrict at -O3.
      std::string name = "m";
      name += std::to_string(info.param.m);
      name += "_k";
      name += std::to_string(info.param.k);
      name += "_n";
      name += std::to_string(info.param.n);
      return name;
    });

TEST(IntraOp, SkewedGemmReachesOracleWith4MiB) {
  // The small 16x16 tensor trivially fits: the tile search achieves the
  // oracle, confirming the Best Intra-layer baseline is realizable.
  const auto r = score::search_best_mapping({524288, 16, 16, 4}, 4ull << 20);
  EXPECT_TRUE(r.oracle_achieved()) << r.best.to_string() << " words=" << r.best_words;
}

TEST(IntraOp, RegularGemmReachesOracleWith4MiB) {
  const auto r = score::search_best_mapping({512, 512, 512, 4}, 4ull << 20);
  EXPECT_TRUE(r.oracle_achieved());
}

TEST(IntraOp, TinyBufferCannotReachOracle) {
  // 1 KiB cannot hold a 512-wide operand slice: traffic exceeds the oracle.
  const auto r = score::search_best_mapping({4096, 512, 512, 4}, 1024);
  EXPECT_FALSE(r.oracle_achieved());
  EXPECT_GT(r.best_words, r.oracle * 1.5);
}

TEST(IntraOp, EvenOracleSkewedGemmIsMemoryBound) {
  // The roofline closes the argument: best-case skewed intensity sits far
  // left of the ridge point at Table V parameters.
  const GemmShape s{524288, 16, 16, 4};
  mem::Roofline roof{16384.0 * 1e9, 1e12};
  const double ai_bytes = score::oracle_intensity_ops_per_word(s) / 4.0;
  EXPECT_TRUE(roof.memory_bound(ai_bytes));
  const GemmShape reg{512, 512, 512, 4};
  EXPECT_FALSE(roof.memory_bound(score::oracle_intensity_ops_per_word(reg) / 4.0));
}

}  // namespace
