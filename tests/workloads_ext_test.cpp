// Tests for the extension workloads (multi-layer GCN, ResNet stacks, power
// iteration) and the multi-node simulation model.
#include <gtest/gtest.h>

#include "score/dependency.hpp"
#include "workloads/cg.hpp"
#include "workloads/gnn.hpp"
#include "workloads/poweriter.hpp"
#include "workloads/resnet.hpp"
#include "test_helpers.hpp"

namespace {

using namespace cello;
using score::DepKind;

TEST(GnnMultilayer, Structure) {
  const auto dag = workloads::build_gnn_multilayer_dag({2708, 9464, 1433, 7}, 3, 64);
  EXPECT_EQ(dag.ops().size(), 6u);  // aggregate+transform per layer
  EXPECT_EQ(dag.edges().size(), 5u);  // H@0 is external; G and H chain
  int results = 0;
  for (const auto& t : dag.tensors())
    if (t.is_result) ++results;
  EXPECT_EQ(results, 1);
}

TEST(GnnMultilayer, AdjacencyReusedEveryLayer) {
  const auto dag = workloads::build_gnn_multilayer_dag({2708, 9464, 1433, 7}, 3, 64);
  ir::TensorId a = ir::kInvalidTensor;
  for (const auto& t : dag.tensors())
    if (t.name == "A_hat") a = t.id;
  ASSERT_NE(a, ir::kInvalidTensor);
  EXPECT_EQ(dag.consumers(a).size(), 3u);
}

TEST(GnnMultilayer, IntraLayerEdgesPipeline) {
  const auto dag = workloads::build_gnn_multilayer_dag({2708, 9464, 1433, 7}, 2, 64);
  const auto cls = score::classify_scheduled(dag, dag.topo_order());
  for (const auto& e : dag.edges()) {
    const auto& src = dag.op(e.src).name;
    if (src.starts_with("aggregate")) {
      EXPECT_EQ(cls.edge_kind[e.id], DepKind::Pipelineable) << src;
    }
  }
}

TEST(GnnMultilayer, CelloBenefitsFromAdjacencyReuse) {
  // Unlike the single layer (Cello == FLAT), multiple layers re-read A_hat;
  // CHORD keeps it on chip, so Cello strictly beats FLAT.
  const auto dag = workloads::build_gnn_multilayer_dag({2708, 9464, 1433, 7}, 3, 64);
  sim::AcceleratorConfig arch;
  const auto flat = test::run(dag, "FLAT", arch);
  const auto cello_m = test::run(dag, "Cello", arch);
  EXPECT_LT(cello_m.dram_bytes, flat.dram_bytes);
}

TEST(ResNetStack, Structure) {
  const auto dag = workloads::build_resnet_stack_dag({}, 4);
  EXPECT_EQ(dag.ops().size(), 1u + 4u * 4u);  // stem + 4 ops per block
  EXPECT_EQ(dag.edges().size(), 4u * 5u);      // conv chain (3) + add (2)
}

TEST(ResNetStack, EverySkipIsDelayedHold) {
  const auto dag = workloads::build_resnet_stack_dag({}, 3);
  const auto cls = score::classify_scheduled(dag, dag.topo_order());
  int holds = 0;
  for (const auto& e : dag.edges())
    if (cls.edge_kind[e.id] == DepKind::DelayedHold) ++holds;
  EXPECT_EQ(holds, 3);  // one per block
}

TEST(ResNetStack, SetStillMatchesCello) {
  const auto dag = workloads::build_resnet_stack_dag({}, 4);
  sim::AcceleratorConfig arch;
  arch.dram_bytes_per_sec = 250e9;
  const auto set = test::run(dag, "SET", arch);
  const auto cello_m = test::run(dag, "Cello", arch);
  const auto flat = test::run(dag, "FLAT", arch);
  EXPECT_EQ(set.dram_bytes, cello_m.dram_bytes);
  EXPECT_GT(flat.dram_bytes, set.dram_bytes);
}

TEST(PowerIteration, Structure) {
  const auto dag = workloads::build_power_iteration_dag({81920, 327680, 10, 4});
  EXPECT_EQ(dag.ops().size(), 30u);
  EXPECT_EQ(dag.edges().size(), 4u * 10u - 1u);  // x@0 is external
}

TEST(PowerIteration, YHasDelayedWritebackToScale) {
  const auto dag = workloads::build_power_iteration_dag({81920, 327680, 3, 4});
  const auto cls = score::classify_scheduled(dag, dag.topo_order());
  int writebacks = 0, pipes = 0;
  for (const auto& e : dag.edges()) {
    const auto& src = dag.op(e.src).name;
    const auto& dst = dag.op(e.dst).name;
    if (src.starts_with("spmv") && dst.starts_with("norm")) {
      EXPECT_EQ(cls.edge_kind[e.id], DepKind::Pipelineable);
      ++pipes;
    }
    if (src.starts_with("spmv") && dst.starts_with("scale")) {
      EXPECT_EQ(cls.edge_kind[e.id], DepKind::DelayedWriteback);
      ++writebacks;
    }
  }
  EXPECT_EQ(pipes, 3);
  EXPECT_EQ(writebacks, 3);
}

TEST(PowerIteration, CelloWins) {
  const auto dag = workloads::build_power_iteration_dag({81920, 327680, 10, 4});
  sim::AcceleratorConfig arch;
  const auto flex = test::run(dag, "Flexagon", arch);
  const auto cello_m = test::run(dag, "Cello", arch);
  EXPECT_LT(cello_m.dram_bytes, flex.dram_bytes);
}

// ---- multi-node --------------------------------------------------------------

sim::AcceleratorConfig on_mesh(i64 nodes) {
  sim::AcceleratorConfig arch;
  arch.nodes = nodes;
  arch.topology = "mesh";
  return arch;
}

TEST(MultiNode, ThroughputGrowsWithNodes) {
  const auto dag = workloads::build_cg_dag({163840, 16, 655360, 5, 4});
  const auto one = test::run(dag, "Cello", on_mesh(1));
  const auto four = test::run(dag, "Cello", on_mesh(4));
  EXPECT_GT(four.gmacs_per_sec(), one.gmacs_per_sec());
  // Sharding can be super-linear (each node's working set shrinks relative to
  // its fixed 4 MiB CHORD — the classic cache effect), but bounded sanity:
  EXPECT_LE(four.parallel_efficiency, 4.0);
  EXPECT_GT(four.parallel_efficiency, 0.3);
}

TEST(MultiNode, ScoreNocTrafficTinyVsNaive) {
  const auto dag = workloads::build_cg_dag({163840, 16, 655360, 5, 4});
  const auto mm = test::run(dag, "Cello", on_mesh(16));
  EXPECT_LT(mm.noc_bytes * 100, mm.naive_noc_bytes);
}

}  // namespace
