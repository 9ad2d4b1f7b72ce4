// Multi-node scale-out through the one run API: AcceleratorConfig::nodes on
// an auto-shaped mesh, so Simulator::run shards the dominant rank, simulates
// one node's slice and folds the routed NoC collectives back in.  These pin
// the whole-run properties; the partition, pricing and fold layers are
// tested piecewise in partition_test, and sweep cells in multinode_sweep_test.
#include <gtest/gtest.h>

#include "workloads/cg.hpp"
#include "workloads/spmv.hpp"
#include "test_helpers.hpp"

namespace {

using namespace cello;

ir::TensorDag small_cg() { return workloads::build_cg_dag({81920, 16, 327680, 3, 4}); }

sim::AcceleratorConfig on_mesh(i64 nodes) {
  sim::AcceleratorConfig arch;
  arch.nodes = nodes;
  arch.topology = "mesh";
  return arch;
}

TEST(MultiNodeSmoke, SingleNodeHasNoNocTerms) {
  const auto dag = small_cg();
  const auto one = test::run(dag, "Cello", on_mesh(1));
  const auto chip = test::run(dag, "Cello", sim::AcceleratorConfig{});
  EXPECT_EQ(one.nodes, 1);
  EXPECT_EQ(one.noc_bytes, 0u);
  EXPECT_EQ(one.naive_noc_bytes, 0u);
  EXPECT_DOUBLE_EQ(one.noc_seconds, 0.0);
  EXPECT_DOUBLE_EQ(one.seconds, chip.seconds);
  EXPECT_EQ(one.dram_bytes, chip.dram_bytes);
}

TEST(MultiNodeSmoke, NocTermsAreRoutedAndSmallerThanNaive) {
  const auto mm = test::run(small_cg(), "Cello", on_mesh(4));
  EXPECT_EQ(mm.nodes, 4);
  EXPECT_GT(mm.noc_bytes, 0u);                  // contracted results do cross
  EXPECT_GT(mm.naive_noc_bytes, mm.noc_bytes);  // skewed tensors dwarf them
  // Transfers are routed hop-by-hop on an auto-shaped mesh (here 2x2), so
  // noc_seconds carries a tree-depth latency term on top of serializing the
  // busiest link — strictly more than shipping the byte-hops at full bw.
  const sim::AcceleratorConfig arch = on_mesh(4);
  EXPECT_GT(mm.noc_seconds, static_cast<double>(mm.noc_bytes) / arch.noc_link_bytes_per_sec / 4.0);
  EXPECT_GT(mm.parallel_efficiency, 0.0);
}

TEST(MultiNodeSmoke, Deterministic) {
  const auto dag = small_cg();
  const auto a = test::run(dag, "Cello", on_mesh(4));
  const auto b = test::run(dag, "Cello", on_mesh(4));
  EXPECT_EQ(a.noc_bytes, b.noc_bytes);
  EXPECT_EQ(a.naive_noc_bytes, b.naive_noc_bytes);
  EXPECT_DOUBLE_EQ(a.seconds, b.seconds);
  EXPECT_DOUBLE_EQ(a.parallel_efficiency, b.parallel_efficiency);
}

TEST(MultiNodeSmoke, NocTermsDependOnlyOnTheDag) {
  // The NoC terms depend only on the partitioned DAG, not the schedule/buffer
  // policy: Flexagon and Cello agree on NoC traffic, differ on time.
  const auto dag = workloads::build_spmv_dag({65536, 524288, 4, 3, 4});
  const auto flex = test::run(dag, "Flexagon", on_mesh(4));
  const auto cello = test::run(dag, "Cello", on_mesh(4));
  EXPECT_EQ(flex.noc_bytes, cello.noc_bytes);
  EXPECT_EQ(flex.naive_noc_bytes, cello.naive_noc_bytes);
  EXPECT_GT(flex.seconds, 0.0);
  EXPECT_GT(cello.seconds, 0.0);
}

}  // namespace
