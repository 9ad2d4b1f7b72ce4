// DAG partitioning for multi-chip scale-out (sim/partition): shard-rank
// selection, shard-DAG structure (ids/edges preserved, extents ceil-divided),
// edge classification against the shard boundary on the real workloads, the
// deterministic transfer list, and the NoC pricing + fold identities.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "sim/partition.hpp"
#include "sim/registry.hpp"
#include "sim/simulator.hpp"
#include "workloads/cg.hpp"
#include "workloads/gnn.hpp"
#include "workloads/llm.hpp"

namespace {

using namespace cello;
using sim::ShardClass;

workloads::GnnShape gnn_shape() {
  workloads::GnnShape s;
  s.vertices = 2708;  // cora
  s.nnz = 10556;
  s.in_features = 1433;
  s.out_features = 16;
  return s;
}

workloads::CgShape cg_shape() {
  workloads::CgShape s;
  s.m = 9604;
  s.n = 16;
  s.nnz = 9604 * 7;
  s.iterations = 2;
  return s;
}

// ---- shard-rank selection ----------------------------------------------------

TEST(PickShardRank, PicksTheDominantUncontractedRank) {
  // GNN: m (vertices) is the only big uncontracted rank.
  EXPECT_EQ(sim::pick_shard_rank(workloads::build_gnn_dag(gnn_shape())), "m");
  // CG: m dominates n everywhere it appears uncontracted.
  EXPECT_EQ(sim::pick_shard_rank(workloads::build_cg_dag(cg_shape())), "m");
  // LLM decode: the MLP hidden width d_ff is the largest uncontracted rank.
  workloads::LlmShape llm;
  EXPECT_EQ(sim::pick_shard_rank(workloads::build_llm_decode_dag(llm)), "f");
}

// ---- shard DAG structure -----------------------------------------------------

TEST(BuildPartition, ShardKeepsIdsEdgesAndDividesExtents) {
  const ir::TensorDag dag = workloads::build_gnn_dag(gnn_shape());
  const sim::Partition part = sim::build_partition(dag, 4);
  EXPECT_EQ(part.nodes, 4);
  EXPECT_EQ(part.shard_rank, "m");
  ASSERT_EQ(part.shard.tensors().size(), dag.tensors().size());
  ASSERT_EQ(part.shard.ops().size(), dag.ops().size());
  ASSERT_EQ(part.shard.edges().size(), dag.edges().size());
  for (const auto& t : dag.tensors()) {
    const auto& st = part.shard.tensor(t.id);
    EXPECT_EQ(st.name, t.name);
    ASSERT_EQ(st.ranks.size(), t.ranks.size());
    for (size_t i = 0; i < t.ranks.size(); ++i) {
      EXPECT_EQ(st.ranks[i], t.ranks[i]) << t.name;
      if (t.ranks[i] == "m")
        EXPECT_EQ(st.dims[i], ceil_div<i64>(t.dims[i], 4)) << t.name;
      else
        EXPECT_EQ(st.dims[i], t.dims[i]) << t.name;
    }
  }
  // The adjacency is compressed and sharded on its row rank: nnz divides too.
  for (const auto& t : dag.tensors()) {
    if (t.storage == ir::Storage::CompressedSparse && !t.ranks.empty() && t.ranks[0] == "m") {
      EXPECT_EQ(part.shard.tensor(t.id).nnz, ceil_div<i64>(t.nnz, 4)) << t.name;
    }
  }
  // Op MAC counts shrink with the sharded rank.
  for (const auto& op : dag.ops())
    EXPECT_LE(part.shard.op(op.id).macs(), op.macs()) << op.name;
}

TEST(BuildPartition, IsDeterministic) {
  const ir::TensorDag dag = workloads::build_cg_dag(cg_shape());
  const sim::Partition a = sim::build_partition(dag, 8);
  const sim::Partition b = sim::build_partition(dag, 8);
  EXPECT_EQ(a.shard_rank, b.shard_rank);
  EXPECT_EQ(a.naive_bytes, b.naive_bytes);
  ASSERT_EQ(a.transfers.size(), b.transfers.size());
  for (size_t i = 0; i < a.transfers.size(); ++i) {
    EXPECT_EQ(a.transfers[i].tensor, b.transfers[i].tensor);
    EXPECT_EQ(a.transfers[i].bytes, b.transfers[i].bytes);
    EXPECT_EQ(a.transfers[i].cls, b.transfers[i].cls);
  }
  EXPECT_EQ(a.tensor_class, b.tensor_class);
  // Transfers come in ascending tensor-id order — the pricing input is stable.
  for (size_t i = 1; i < a.transfers.size(); ++i)
    EXPECT_LT(a.transfers[i - 1].tensor, a.transfers[i].tensor);
}

// ---- edge classification -----------------------------------------------------

TEST(BuildPartition, GnnBroadcastsWeightsAndShipsNothingElse) {
  const ir::TensorDag dag = workloads::build_gnn_dag(gnn_shape());
  const sim::Partition part = sim::build_partition(dag, 4);
  size_t broadcasts = 0, reduces = 0;
  for (const auto& t : dag.tensors()) {
    const ShardClass cls = part.tensor_class[static_cast<size_t>(t.id)];
    if (cls == ShardClass::Broadcast) {
      ++broadcasts;
      // Only the m-free weight matrix crosses the fabric.
      EXPECT_FALSE(t.has_rank("m")) << t.name;
      EXPECT_EQ(t.name, "W");
    }
    if (cls == ShardClass::Reduce) ++reduces;
  }
  EXPECT_EQ(broadcasts, 1u);
  EXPECT_EQ(reduces, 0u);  // every GNN product keeps the vertex rank
  EXPECT_EQ(part.transfers.size(), 1u);
  // The naive split ships the sharded intermediates: strictly more traffic.
  Bytes score_bytes = 0;
  for (const auto& x : part.transfers) score_bytes += x.bytes;
  EXPECT_GT(part.naive_bytes, score_bytes);
}

TEST(BuildPartition, CgReducesContractedDominantPartials) {
  const ir::TensorDag dag = workloads::build_cg_dag(cg_shape());
  const sim::Partition part = sim::build_partition(dag, 4);
  size_t reduces = 0;
  for (const auto& t : dag.tensors()) {
    if (part.tensor_class[static_cast<size_t>(t.id)] != ShardClass::Reduce) continue;
    ++reduces;
    // Reductions are exactly the m-free products of m-contracting ops
    // (Delta and Gamma, every iteration).
    EXPECT_FALSE(t.has_rank("m")) << t.name;
    const auto prod = dag.producer(t.id);
    ASSERT_TRUE(prod.has_value()) << t.name;
    bool contracts_m = false;
    for (const auto& r : dag.op(*prod).ranks)
      if (r.contracted && r.name == "m") contracts_m = true;
    EXPECT_TRUE(contracts_m) << t.name;
  }
  EXPECT_GE(reduces, 2u * 2u);  // Delta and Gamma per iteration
}

TEST(BuildPartition, LlmKeepsKvCacheNodeLocal) {
  const ir::TensorDag dag = workloads::build_llm_decode_dag(workloads::LlmShape{});
  const sim::Partition part = sim::build_partition(dag, 4);
  // KV-cache chains never carry d_ff, and their appends must not cross the
  // fabric: they classify Local (replicated), not Reduce/Broadcast.
  for (const auto& t : dag.tensors()) {
    if (!t.append_only) continue;
    EXPECT_EQ(part.tensor_class[static_cast<size_t>(t.id)], ShardClass::Local) << t.name;
  }
}

// ---- error paths -------------------------------------------------------------

TEST(BuildPartition, RejectsMoreNodesThanShardExtent) {
  workloads::GnnShape tiny;
  tiny.vertices = 8;  // m dominates: the other ranks are smaller still
  tiny.nnz = 16;
  tiny.in_features = 4;
  tiny.out_features = 2;
  const ir::TensorDag dag = workloads::build_gnn_dag(tiny);
  ASSERT_EQ(sim::pick_shard_rank(dag), "m");
  EXPECT_NO_THROW(sim::build_partition(dag, 8));
  EXPECT_THROW(sim::build_partition(dag, 9), Error);
  EXPECT_THROW(sim::build_partition(dag, 0), Error);
}

TEST(BuildPartition, SingleNodeIsTheIdentity) {
  const ir::TensorDag dag = workloads::build_gnn_dag(gnn_shape());
  const sim::Partition part = sim::build_partition(dag, 1);
  EXPECT_TRUE(part.transfers.empty());
  EXPECT_EQ(part.naive_bytes, 0);
  for (const auto& t : dag.tensors()) {
    const auto& st = part.shard.tensor(t.id);
    ASSERT_EQ(st.dims.size(), t.dims.size());
    for (size_t i = 0; i < t.dims.size(); ++i) EXPECT_EQ(st.dims[i], t.dims[i]) << t.name;
  }
}

// ---- NoC pricing + fold ------------------------------------------------------

TEST(PriceNoc, TopologyDifferentiatesTheSameCollectives) {
  const ir::TensorDag dag = workloads::build_gnn_dag(gnn_shape());
  const sim::Partition part = sim::build_partition(dag, 16);
  const sim::AcceleratorConfig arch;
  const auto price = [&](const char* spec) {
    return sim::price_noc(part.transfers, noc::Topology::build(noc::TopologySpec::parse(spec)),
                          arch);
  };
  const sim::NocCost mesh = price("mesh:4x4");
  const sim::NocCost torus = price("torus:4x4");
  const sim::NocCost ring = price("ring:16");
  // Wraparound halves worst-case distance: torus strictly beats mesh on
  // byte-hops and no worse on the busiest link; the ring's long average
  // distance costs the most byte-hops of the three.
  EXPECT_LT(torus.byte_hops, mesh.byte_hops);
  EXPECT_LE(torus.max_link_bytes, mesh.max_link_bytes);
  EXPECT_GT(ring.byte_hops, mesh.byte_hops);
  EXPECT_GT(mesh.seconds, 0.0);
}

TEST(FoldMultinode, ScalesCountersAndAddsNocTerms) {
  const ir::TensorDag dag = workloads::build_gnn_dag(gnn_shape());
  const sim::Partition part = sim::build_partition(dag, 4);
  const noc::Topology topo = noc::Topology::build(noc::TopologySpec::parse("mesh:2x2"));
  sim::AcceleratorConfig arch;
  const sim::Simulator single(arch);
  const sim::Configuration& cello = sim::ConfigRegistry::global().at("Cello");
  const sim::RunMetrics base = single.run(dag, cello);
  const sim::RunMetrics per_node = single.run(part.shard, cello);
  const sim::RunMetrics mm = sim::fold_multinode(per_node, base.seconds, part, topo, arch);
  EXPECT_EQ(mm.nodes, 4);
  EXPECT_EQ(mm.total_macs, per_node.total_macs * 4);
  EXPECT_EQ(mm.dram_bytes, per_node.dram_bytes * 4);
  EXPECT_GT(mm.noc_bytes, 0);
  EXPECT_GT(mm.naive_noc_bytes, mm.noc_bytes / 3);  // same order; naive >> score on big M
  EXPECT_DOUBLE_EQ(mm.seconds, per_node.seconds + mm.noc_seconds);
  EXPECT_GT(mm.parallel_efficiency, 0.0);
  EXPECT_LE(mm.max_link_utilization, 1.0);

  // The arch-driven Simulator path is exactly this fold.
  sim::AcceleratorConfig multi = arch;
  multi.nodes = 4;
  multi.topology = "mesh:2x2";
  const sim::RunMetrics direct = sim::Simulator(multi).run(dag, cello);
  EXPECT_EQ(direct.nodes, mm.nodes);
  EXPECT_EQ(direct.noc_bytes, mm.noc_bytes);
  EXPECT_EQ(direct.dram_bytes, mm.dram_bytes);
  EXPECT_DOUBLE_EQ(direct.seconds, mm.seconds);
  EXPECT_DOUBLE_EQ(direct.parallel_efficiency, mm.parallel_efficiency);
}

}  // namespace
