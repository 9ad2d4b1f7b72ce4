// Detail tests for simulator internals, swizzle-demotion and the Matrix
// Market file path.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "cello/cello.hpp"
#include "score/schedule.hpp"
#include "sparse/matrix_market.hpp"
#include "workloads/cg.hpp"
#include "workloads/gnn.hpp"
#include "test_helpers.hpp"

namespace {

using namespace cello;
using sim::AcceleratorConfig;

TEST(EngineDetail, EnergyFieldsPopulated) {
  const auto dag = workloads::build_cg_dag({9604, 16, 85264, 3, 4});
  for (const std::string& config : sim::ConfigRegistry::table4_names()) {
    const auto m = test::run(dag, config, AcceleratorConfig{});
    EXPECT_GT(m.offchip_energy_pj, 0.0) << config;
    EXPECT_GT(m.onchip_energy_pj, 0.0) << config;
    EXPECT_GT(m.sram_line_accesses, 0u) << config;
    EXPECT_DOUBLE_EQ(m.total_energy_pj(), m.offchip_energy_pj + m.onchip_energy_pj);
  }
}

TEST(EngineDetail, CacheEnergyIncludesTagCost) {
  // Same traffic structure, but the cache pays tag lookups: per-SRAM-access
  // energy must exceed the explicit configurations'.
  const auto dag = workloads::build_cg_dag({9604, 16, 85264, 3, 4});
  const auto lru = test::run(dag, "Flex+LRU", AcceleratorConfig{});
  const auto flex = test::run(dag, "Flexagon", AcceleratorConfig{});
  const double lru_per_access = lru.onchip_energy_pj / static_cast<double>(lru.sram_line_accesses);
  const double flex_per_access =
      flex.onchip_energy_pj / static_cast<double>(flex.sram_line_accesses);
  EXPECT_GT(lru_per_access, flex_per_access);
}

TEST(EngineDetail, MakeScheduleDisablesPipeliningForOpByOpConfigs) {
  const auto dag = workloads::build_gnn_dag({500, 2500, 32, 8});
  const sim::Simulator simulator{AcceleratorConfig{}};
  const auto& registry = sim::ConfigRegistry::global();
  const auto flex = score::build_schedule(dag, simulator.schedule_options(registry.at("Flexagon")));
  const auto cello_s = score::build_schedule(dag, simulator.schedule_options(registry.at("Cello")));
  EXPECT_FALSE(flex.edge_realized[0]);
  EXPECT_TRUE(cello_s.edge_realized[0]);
}

TEST(EngineDetail, DeterministicAcrossRuns) {
  const auto dag = workloads::build_cg_dag({9604, 16, 85264, 5, 4});
  for (auto config : {"Cello", "Flex+BRRIP"}) {
    const auto a = test::run(dag, config, AcceleratorConfig{});
    const auto b = test::run(dag, config, AcceleratorConfig{});
    EXPECT_EQ(a.dram_bytes, b.dram_bytes) << config;
    EXPECT_DOUBLE_EQ(a.seconds, b.seconds) << config;
  }
}

TEST(SwizzleDemotion, LayoutConflictBreaksPipelining) {
  // Producer emits m-major; the consumer's outermost loop walks a rank the
  // tensor does not share as its major — the codependence conditions fail and
  // the pipelineable edge demotes to sequential.
  ir::TensorDag dag;
  ir::TensorDesc tin;
  tin.name = "In";
  tin.ranks = {"m", "n"};
  tin.dims = {100000, 16};
  const auto in_id = dag.add_tensor(tin);
  ir::TensorDesc t0 = tin;
  t0.name = "T0";
  const auto t0_id = dag.add_tensor(t0);
  ir::TensorDesc t1;
  t1.name = "T1";
  t1.ranks = {"z", "n"};
  t1.dims = {200000, 16};
  const auto t1_id = dag.add_tensor(t1);

  ir::EinsumOp p;
  p.name = "produce";
  p.inputs = {in_id};
  p.output = t0_id;
  p.ranks = {ir::OpRank{"m", 100000, false, -1}, ir::OpRank{"n", 16, false, -1}};
  const auto po = dag.add_op(p);

  // Consumer contracts over m but its dominant rank z is unshared with T0 —
  // Algorithm 2 rule 3 makes the edge sequential outright.
  ir::EinsumOp c;
  c.name = "consume";
  c.inputs = {t0_id};
  c.output = t1_id;
  c.ranks = {ir::OpRank{"z", 200000, false, -1}, ir::OpRank{"m", 100000, true, -1},
             ir::OpRank{"n", 16, false, -1}};
  const auto co = dag.add_op(c);
  ASSERT_EQ(dag.edges().size(), 1u);
  EXPECT_EQ(dag.edge(0).src, po);
  EXPECT_EQ(dag.edge(0).dst, co);

  const auto sched = score::build_schedule(dag);
  EXPECT_FALSE(sched.edge_realized[0]);
  EXPECT_EQ(sched.deps.edge_kind[0], score::DepKind::Sequential);
  // And the simulator charges full traffic for T0.
  const auto flex = test::run(dag, "Flexagon", AcceleratorConfig{});
  const auto cel = test::run(dag, "Cello", AcceleratorConfig{});
  EXPECT_GT(cel.dram_bytes, 0u);
  EXPECT_LE(cel.dram_bytes, flex.dram_bytes);
}

TEST(MatrixMarketFile, RoundTripThroughDisk) {
  const auto m = sparse::CsrMatrix::from_triplets(
      4, 4, {{0, 1, 1.5}, {2, 3, -2.0}, {3, 0, 0.25}, {1, 1, 9.0}});
  const std::string path = "/tmp/cello_mm_test.mtx";
  sparse::write_matrix_market_file(m, path);
  const auto back = sparse::read_matrix_market_file(path);
  ASSERT_EQ(back.nnz(), m.nnz());
  for (i64 k = 0; k < m.nnz(); ++k) {
    EXPECT_EQ(back.col_idx()[k], m.col_idx()[k]);
    EXPECT_DOUBLE_EQ(back.values()[k], m.values()[k]);
  }
  std::remove(path.c_str());
}

TEST(MatrixMarketFile, MissingFileThrows) {
  EXPECT_THROW(sparse::read_matrix_market_file("/tmp/definitely_not_here.mtx"), Error);
}

}  // namespace
