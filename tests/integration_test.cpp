// Cross-module integration tests: the paper-shape assertions every figure
// relies on, run end-to-end (workload builder -> SCORE -> simulator) over a
// parameter grid.
#include <gtest/gtest.h>

#include "cello/cello.hpp"
#include "sparse/datasets.hpp"
#include "test_helpers.hpp"

namespace {

using namespace cello;
using sim::AcceleratorConfig;

struct GridPoint {
  const char* dataset;
  i64 n;
  double bandwidth;
};

class CgGridTest : public ::testing::TestWithParam<GridPoint> {};

TEST_P(CgGridTest, PaperShapeHolds) {
  const auto& p = GetParam();
  const auto& spec = sparse::dataset_by_name(p.dataset);
  workloads::CgShape shape;
  shape.m = spec.rows;
  shape.n = p.n;
  shape.nnz = spec.nnz;
  shape.iterations = 10;
  const auto dag = workloads::build_cg_dag(shape);

  AcceleratorConfig arch;
  arch.dram_bytes_per_sec = p.bandwidth;

  const auto flex = test::run(dag, "Flexagon", arch);
  const auto flat = test::run(dag, "FLAT", arch);
  const auto set = test::run(dag, "SET", arch);
  const auto prelude = test::run(dag, "Prelude-only", arch);
  const auto cello_m = test::run(dag, "Cello", arch);

  // Fig. 12 orderings.
  EXPECT_EQ(flat.dram_bytes, flex.dram_bytes) << "FLAT gains nothing on CG";
  EXPECT_EQ(set.dram_bytes, flex.dram_bytes) << "SET gains nothing on CG";
  EXPECT_LT(cello_m.dram_bytes, flex.dram_bytes);
  EXPECT_LE(cello_m.dram_bytes, prelude.dram_bytes);
  EXPECT_LT(cello_m.seconds, flex.seconds);

  // Fig. 14: energy reduction between 20% and 99.9%.
  const double rel = cello_m.offchip_energy_pj / flex.offchip_energy_pj;
  EXPECT_GT(rel, 0.001);
  EXPECT_LT(rel, 0.8);
}

INSTANTIATE_TEST_SUITE_P(
    Fig12Grid, CgGridTest,
    ::testing::Values(GridPoint{"fv1", 1, 1e12}, GridPoint{"fv1", 16, 1e12},
                      GridPoint{"fv1", 16, 250e9}, GridPoint{"shallow_water1", 1, 1e12},
                      GridPoint{"shallow_water1", 16, 1e12},
                      GridPoint{"shallow_water1", 16, 250e9},
                      GridPoint{"G2_circuit", 16, 1e12}),
    [](const ::testing::TestParamInfo<GridPoint>& info) {
      return std::string(info.param.dataset) + "_n" + std::to_string(info.param.n) + "_bw" +
             std::to_string(static_cast<int>(info.param.bandwidth / 1e9));
    });

TEST(Integration, CachesLoseToExplicitOnLargeWorkingSets) {
  // The paper's Fig. 12 claim, scoped to working sets exceeding the SRAM.
  const auto& spec = sparse::dataset_by_name("shallow_water1");
  const auto matrix = sparse::instantiate(spec);
  workloads::CgShape shape;
  shape.m = spec.rows;
  shape.n = 16;
  shape.nnz = matrix.nnz();
  shape.iterations = 5;
  const auto dag = workloads::build_cg_dag(shape);
  AcceleratorConfig arch;
  const auto flex = test::run(dag, "Flexagon", arch, &matrix);
  const auto lru = test::run(dag, "Flex+LRU", arch, &matrix);
  const auto brrip = test::run(dag, "Flex+BRRIP", arch, &matrix);
  EXPECT_GE(lru.dram_bytes, flex.dram_bytes);
  EXPECT_GE(brrip.dram_bytes, flex.dram_bytes);
}

TEST(Integration, CachesWinOnInCacheWorkingSets) {
  // ...and the complementary regime: everything fits, so hits dominate.
  const auto& spec = sparse::dataset_by_name("fv1");
  const auto matrix = sparse::instantiate(spec);
  workloads::CgShape shape;
  shape.m = spec.rows;
  shape.n = 16;
  shape.nnz = matrix.nnz();
  shape.iterations = 5;
  const auto dag = workloads::build_cg_dag(shape);
  AcceleratorConfig arch;
  const auto flex = test::run(dag, "Flexagon", arch, &matrix);
  const auto lru = test::run(dag, "Flex+LRU", arch, &matrix);
  EXPECT_LT(lru.dram_bytes, flex.dram_bytes);
}

TEST(Integration, CompareTableMentionsEveryConfig) {
  const auto dag = workloads::build_gnn_dag({500, 2500, 32, 8});
  const auto table = compare_table(dag, AcceleratorConfig{});
  for (const std::string& config : sim::ConfigRegistry::table4_names())
    EXPECT_NE(table.find(config), std::string::npos) << config;
}

TEST(Integration, BandwidthSweepPreservesTraffic) {
  // Analytic configs: DRAM traffic is schedule-determined, independent of BW.
  const auto dag = workloads::build_cg_dag({9604, 16, 85264, 5, 4});
  AcceleratorConfig fast, slow;
  fast.dram_bytes_per_sec = 1e12;
  slow.dram_bytes_per_sec = 250e9;
  for (auto config : {"Flexagon", "FLAT", "Cello"}) {
    const auto f = test::run(dag, config, fast);
    const auto s = test::run(dag, config, slow);
    EXPECT_EQ(f.dram_bytes, s.dram_bytes) << config;
    EXPECT_GE(s.seconds, f.seconds) << config;
  }
}

TEST(Integration, MoreIterationsMoreTrafficButBetterAmortization) {
  // A reused on-chip, so per-iteration Cello traffic falls with iterations.
  AcceleratorConfig arch;
  const auto d3 = workloads::build_cg_dag({81920, 16, 327680, 3, 4});
  const auto d10 = workloads::build_cg_dag({81920, 16, 327680, 10, 4});
  const auto m3 = test::run(d3, "Cello", arch);
  const auto m10 = test::run(d10, "Cello", arch);
  EXPECT_GT(m10.dram_bytes, m3.dram_bytes);
  EXPECT_LT(static_cast<double>(m10.dram_bytes) / 10.0,
            static_cast<double>(m3.dram_bytes) / 3.0);
}

TEST(Integration, ChordEntryStarvationDegradesGracefully) {
  const auto dag = workloads::build_cg_dag({81920, 16, 327680, 5, 4});
  AcceleratorConfig rich, poor;
  poor.chord_entries = 2;
  const auto m_rich = test::run(dag, "Cello", rich);
  const auto m_poor = test::run(dag, "Cello", poor);
  EXPECT_GE(m_poor.dram_bytes, m_rich.dram_bytes);
}

TEST(Integration, HoldBudgetDemotionOnResNet) {
  const auto dag = workloads::build_resnet_block_dag({});
  AcceleratorConfig roomy, tight;
  tight.hold_budget_bytes = 64 * 1024;  // cannot hold the 784 KiB skip tensor
  const auto m_roomy = test::run(dag, "Cello", roomy);
  const auto m_tight = test::run(dag, "Cello", tight);
  EXPECT_GT(m_tight.dram_bytes, 0u);
  EXPECT_LE(m_roomy.dram_bytes, m_tight.dram_bytes);
}

}  // namespace
