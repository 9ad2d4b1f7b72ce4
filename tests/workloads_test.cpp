// Structural tests for the workload DAG builders (CG, BiCGStab, GNN, ResNet)
// and their WorkloadRegistry spec equivalents.
#include <gtest/gtest.h>

#include "sim/workload_registry.hpp"
#include "test_helpers.hpp"
#include "workloads/bicgstab.hpp"
#include "workloads/cg.hpp"
#include "workloads/gnn.hpp"
#include "workloads/resnet.hpp"

namespace {

using namespace cello;

// Every builder below is also reachable as a registry kind; the spec route
// must produce structurally identical DAGs.
TEST(WorkloadRegistryPort, SpecsMatchDirectBuilders) {
  auto& r = sim::WorkloadRegistry::global();
  EXPECT_EQ(r.resolve("cg:m=1000,nnz=9000,n=8,iters=10").dag->ops().size(), 80u);
  EXPECT_EQ(r.resolve("bicgstab:m=5000,nnz=50000,iters=10").dag->ops().size(), 90u);
  EXPECT_EQ(r.resolve("gnn:m=1000,nnz=5000").dag->ops().size(), 2u);
  EXPECT_EQ(r.resolve("resnet").dag->ops().size(), 5u);
  EXPECT_EQ(r.resolve("resnet").dag->tensors().size(),
            workloads::build_resnet_block_dag({}).tensors().size());
  EXPECT_EQ(r.resolve("spmv:m=1000,nnz=9000,iters=5").dag->ops().size(), 5u);
  EXPECT_EQ(r.resolve("sddmm:m=1000,nnz=8000").dag->ops().size(), 2u);
}

TEST(BaseName, StripsVersionSuffix) {
  EXPECT_EQ(workloads::base_name("S@3"), "S");
  EXPECT_EQ(workloads::base_name("Gamma@10"), "Gamma");
  EXPECT_EQ(workloads::base_name("A"), "A");
}

TEST(CgDag, OpAndTensorCounts) {
  workloads::CgShape s;
  s.m = 1000;
  s.n = 8;
  s.nnz = 9000;
  s.iterations = 10;
  const auto dag = workloads::build_cg_dag(s);
  EXPECT_EQ(dag.ops().size(), 80u);           // 8 ops per iteration
  EXPECT_EQ(dag.tensors().size(), 85u);       // 8 per iter + A + 4 initials
  EXPECT_EQ(test::external_inputs(dag), 5u);
}

TEST(CgDag, Dominances) {
  workloads::CgShape s;
  s.m = 100000;
  s.n = 16;
  s.nnz = 900000;
  s.iterations = 1;
  const auto dag = workloads::build_cg_dag(s);
  auto dom = [&](const std::string& name) {
    for (const auto& op : dag.ops())
      if (op.name == name) return op.dominance();
    ADD_FAILURE() << name;
    return ir::Dominance::Balanced;
  };
  EXPECT_EQ(dom("1@1"), ir::Dominance::Uncontracted);  // compressed contraction
  EXPECT_EQ(dom("2a@1"), ir::Dominance::Contracted);
  EXPECT_EQ(dom("3@1"), ir::Dominance::Uncontracted);
  EXPECT_EQ(dom("5@1"), ir::Dominance::Contracted);
}

TEST(CgDag, SpmmMacsUseNnz) {
  workloads::CgShape s;
  s.m = 1000;
  s.n = 8;
  s.nnz = 9000;
  s.iterations = 1;
  const auto dag = workloads::build_cg_dag(s);
  EXPECT_EQ(dag.op(0).macs(), 9000 * 8);
}

TEST(CgDag, CrossIterationEdgesExist) {
  workloads::CgShape s;
  s.m = 1000;
  s.n = 8;
  s.nnz = 9000;
  s.iterations = 2;
  const auto dag = workloads::build_cg_dag(s);
  int cross = 0;
  for (const auto& e : dag.edges()) {
    const auto& src = dag.op(e.src).name;
    const auto& dst = dag.op(e.dst).name;
    if (src.ends_with("@1") && dst.ends_with("@2")) ++cross;
  }
  // P feeds 1,2a,3,7; R feeds 4 (accumulation); X feeds 3; Gamma feeds 2b,6.
  EXPECT_GE(cross, 8);
}

TEST(CgDag, LastXIsResult) {
  workloads::CgShape s;
  s.m = 1000;
  s.n = 8;
  s.nnz = 9000;
  s.iterations = 3;
  const auto dag = workloads::build_cg_dag(s);
  int results = 0;
  for (const auto& t : dag.tensors())
    if (t.is_result) {
      ++results;
      EXPECT_EQ(t.name, "X@3");
    }
  EXPECT_EQ(results, 1);
}

TEST(CgDag, RejectsBadShape) {
  workloads::CgShape s;  // all zeros
  EXPECT_THROW(workloads::build_cg_dag(s), Error);
}

TEST(BiCgStabDag, Structure) {
  workloads::BiCgStabShape s;
  s.m = 5000;
  s.nnz = 50000;
  s.iterations = 10;
  const auto dag = workloads::build_bicgstab_dag(s);
  EXPECT_EQ(dag.ops().size(), 90u);  // 9 ops per iteration
  int results = 0;
  for (const auto& t : dag.tensors())
    if (t.is_result) ++results;
  EXPECT_EQ(results, 1);
}

TEST(BiCgStabDag, DotsAreContracted) {
  workloads::BiCgStabShape s;
  s.m = 5000;
  s.nnz = 50000;
  s.iterations = 1;
  const auto dag = workloads::build_bicgstab_dag(s);
  for (const auto& op : dag.ops()) {
    if (op.name.starts_with("rho") || op.name.starts_with("alpha") ||
        op.name.starts_with("omega")) {
      EXPECT_EQ(op.dominance(), ir::Dominance::Contracted) << op.name;
    }
    if (op.name.starts_with("spmv")) {
      EXPECT_EQ(op.dominance(), ir::Dominance::Uncontracted) << op.name;
    }
  }
}

TEST(GnnDag, Structure) {
  const auto dag = workloads::build_gnn_dag({2708, 9464, 1433, 7});
  EXPECT_EQ(dag.ops().size(), 2u);
  EXPECT_EQ(dag.edges().size(), 1u);
  EXPECT_EQ(test::external_inputs(dag), 3u);  // A_hat, X, W
}

TEST(GnnDag, ShapesMatchTable6) {
  const auto dag = workloads::build_gnn_dag({2708, 9464, 1433, 7});
  const auto& h = dag.tensor(dag.edge(0).tensor);
  EXPECT_EQ(h.dim_of("m"), 2708);
  EXPECT_EQ(h.dim_of("n"), 1433);
  EXPECT_EQ(dag.op(0).macs(), 9464 * 1433);
}

TEST(ResNetDag, Structure) {
  const auto dag = workloads::build_resnet_block_dag({});
  EXPECT_EQ(dag.ops().size(), 5u);  // conv0..conv3 + add
  EXPECT_EQ(dag.edges().size(), 5u);
}

TEST(ResNetDag, AllNodesBalanced) {
  const auto dag = workloads::build_resnet_block_dag({});
  for (const auto& op : dag.ops())
    EXPECT_EQ(op.dominance(), ir::Dominance::Balanced) << op.name;
}

TEST(ResNetDag, SixteenBitWords) {
  const auto dag = workloads::build_resnet_block_dag({});
  for (const auto& t : dag.tensors()) EXPECT_EQ(t.word_bytes, 2u) << t.name;
}

TEST(ResNetDag, Conv2WindowMacs) {
  const auto dag = workloads::build_resnet_block_dag({});
  for (const auto& op : dag.ops()) {
    if (op.name == "conv2") {
      EXPECT_EQ(op.macs(), 784 * 128 * 9 * 128);
    }
  }
}

}  // namespace
