// Tests for the simulation engine: traffic formulas, configuration ordering,
// address mapping and the NoC model.
#include <gtest/gtest.h>

#include <set>

#include "cello/cello.hpp"
#include "sim/address_map.hpp"
#include "sparse/datasets.hpp"
#include "workloads/bicgstab.hpp"
#include "workloads/cg.hpp"
#include "workloads/gnn.hpp"
#include "workloads/resnet.hpp"
#include "test_helpers.hpp"

namespace {

using namespace cello;
using sim::AcceleratorConfig;

workloads::CgShape small_cg() {
  workloads::CgShape s;
  s.m = 9604;
  s.n = 16;
  s.nnz = 85264;
  s.iterations = 5;
  return s;
}

workloads::CgShape big_cg() {
  workloads::CgShape s;
  s.m = 81920;
  s.n = 16;
  s.nnz = 327680;
  s.iterations = 5;
  return s;
}

TEST(AddressMap, GroupsInstancesByBase) {
  const auto dag = workloads::build_cg_dag(small_cg());
  const auto map = sim::AddressMap::build(dag);
  // 5 iterations of 8 tensors collapse into 9 bases + 4 initials share bases.
  i32 p_base = -1;
  for (const auto& t : dag.tensors()) {
    if (workloads::base_name(t.name) == "P") {
      if (p_base < 0) p_base = map.base_id(t.id);
      EXPECT_EQ(map.base_id(t.id), p_base) << t.name;
    }
  }
  EXPECT_GE(p_base, 0);
}

TEST(AddressMap, RangesAreDisjoint) {
  const auto dag = workloads::build_cg_dag(small_cg());
  const auto map = sim::AddressMap::build(dag);
  for (size_t i = 0; i + 1 < map.entries.size(); ++i)
    EXPECT_GE(map.entries[i + 1].start, map.entries[i].start + map.entries[i].bytes);
}

TEST(AddressMap, EntrySizedForLargestInstance) {
  const auto dag = workloads::build_cg_dag(small_cg());
  const auto map = sim::AddressMap::build(dag);
  for (const auto& t : dag.tensors()) EXPECT_GE(map.of(t.id).bytes, t.bytes());
}

TEST(Engine, FlexagonTrafficIsExactColdSum) {
  // Oracle op-by-op: every unique operand of every op moves exactly once.
  const auto dag = workloads::build_gnn_dag({1000, 5000, 64, 16});
  AcceleratorConfig arch;
  const auto m = test::run(dag, "Flexagon", arch);
  Bytes expected = 0;
  for (const auto& op : dag.ops()) {
    std::set<ir::TensorId> seen;
    for (auto in : op.inputs)
      if (seen.insert(in).second) expected += dag.tensor(in).bytes();
    expected += dag.tensor(op.output).bytes();
  }
  EXPECT_EQ(m.dram_bytes, expected);
}

TEST(Engine, FlatSkipsPipelinedIntermediate) {
  const auto dag = workloads::build_gnn_dag({1000, 5000, 64, 16});
  AcceleratorConfig arch;
  const auto flex = test::run(dag, "Flexagon", arch);
  const auto flat = test::run(dag, "FLAT", arch);
  ir::TensorId h = dag.edge(0).tensor;
  EXPECT_EQ(flat.dram_bytes, flex.dram_bytes - 2 * dag.tensor(h).bytes());
}

TEST(Engine, CelloEqualsFlatOnGnn) {
  // Fig. 13: "CELLO achieves the same performance as FLAT" for GNN layers.
  const auto dag = workloads::build_gnn_dag({2708, 9464, 1433, 7});
  AcceleratorConfig arch;
  const auto flat = test::run(dag, "FLAT", arch);
  const auto cello = test::run(dag, "Cello", arch);
  EXPECT_EQ(cello.dram_bytes, flat.dram_bytes);
  EXPECT_DOUBLE_EQ(cello.seconds, flat.seconds);
}

TEST(Engine, FlatAndSetEqualFlexagonOnCg) {
  // Sec. VII-C1: every CG intermediate has a delayed downstream consumer, so
  // pipelining-only and hold-only schedulers gain nothing.
  const auto dag = workloads::build_cg_dag(big_cg());
  AcceleratorConfig arch;
  const auto flex = test::run(dag, "Flexagon", arch);
  const auto flat = test::run(dag, "FLAT", arch);
  const auto set = test::run(dag, "SET", arch);
  EXPECT_EQ(flat.dram_bytes, flex.dram_bytes);
  EXPECT_EQ(set.dram_bytes, flex.dram_bytes);
}

TEST(Engine, CelloBeatsAllBaselinesOnCg) {
  const auto dag = workloads::build_cg_dag(big_cg());
  AcceleratorConfig arch;
  const auto cello = test::run(dag, "Cello", arch);
  for (const char* config : {"Flexagon", "FLAT", "SET",
                       "Prelude-only"}) {
    const auto base = test::run(dag, config, arch);
    EXPECT_LT(cello.dram_bytes, base.dram_bytes) << config;
    EXPECT_LT(cello.seconds, base.seconds) << config;
  }
}

TEST(Engine, RiffBeatsPreludeOnlyUnderContention) {
  // Fig. 16c: RIFF keeps frequently reused tensors resident when the working
  // set exceeds the buffer.
  const auto dag = workloads::build_cg_dag(big_cg());
  AcceleratorConfig arch;
  const auto cello = test::run(dag, "Cello", arch);
  const auto prelude = test::run(dag, "Prelude-only", arch);
  EXPECT_LT(cello.dram_bytes, prelude.dram_bytes);
}

TEST(Engine, SetMatchesCelloOnResNetAndBeatsFlat) {
  // Fig. 16a: SET handles the delayed-hold skip connection like Cello; FLAT
  // must spill the block input.
  const auto dag = workloads::build_resnet_block_dag({});
  AcceleratorConfig arch;
  arch.dram_bytes_per_sec = 250e9;
  const auto set = test::run(dag, "SET", arch);
  const auto cello = test::run(dag, "Cello", arch);
  const auto flat = test::run(dag, "FLAT", arch);
  EXPECT_EQ(set.dram_bytes, cello.dram_bytes);
  EXPECT_GT(flat.dram_bytes, set.dram_bytes);
}

TEST(Engine, ResNetComputeBoundAtFullBandwidth) {
  // Sec. VII-C1: at 1 TB/s the residual block saturates compute.
  const auto dag = workloads::build_resnet_block_dag({});
  AcceleratorConfig arch;
  const auto cello = test::run(dag, "Cello", arch);
  const double compute_s = arch.compute_seconds(cello.total_macs);
  EXPECT_NEAR(cello.seconds, compute_s, compute_s * 0.35);
}

TEST(Engine, TrafficConservation) {
  const auto dag = workloads::build_cg_dag(small_cg());
  AcceleratorConfig arch;
  for (const std::string& config : sim::ConfigRegistry::table4_names()) {
    const auto m = test::run(dag, config, arch);
    EXPECT_EQ(m.dram_bytes, m.dram_read_bytes + m.dram_write_bytes) << config;
    EXPECT_GT(m.total_macs, 0) << config;
    EXPECT_GT(m.seconds, 0.0) << config;
  }
}

TEST(Engine, CacheConfigsRespondToRealMatrixStructure) {
  const auto spec = sparse::dataset_by_name("fv1");
  const auto matrix = sparse::instantiate(spec);
  workloads::CgShape s;
  s.m = spec.rows;
  s.n = 16;
  s.nnz = matrix.nnz();
  s.iterations = 2;
  const auto dag = workloads::build_cg_dag(s);
  AcceleratorConfig arch;
  const auto with = test::run(dag, "Flex+LRU", arch, &matrix);
  const auto without = test::run(dag, "Flex+LRU", arch, nullptr);
  EXPECT_GT(with.dram_bytes, 0u);
  EXPECT_GT(without.dram_bytes, 0u);
}

TEST(Engine, BandwidthScalesMemoryBoundRuntime) {
  const auto dag = workloads::build_cg_dag(big_cg());
  AcceleratorConfig fast, slow;
  fast.dram_bytes_per_sec = 1e12;
  slow.dram_bytes_per_sec = 250e9;
  const auto f = test::run(dag, "Flexagon", fast);
  const auto s = test::run(dag, "Flexagon", slow);
  EXPECT_NEAR(s.seconds / f.seconds, 4.0, 0.2);  // memory bound: ~4x slower
}

TEST(Engine, LargerChordReducesTraffic) {
  // Fig. 16b SRAM sweep shape: bigger CHORD, less DRAM.
  const auto dag = workloads::build_cg_dag(big_cg());
  AcceleratorConfig small, large;
  small.sram_bytes = 1ull << 20;
  large.sram_bytes = 16ull << 20;
  const auto m_small = test::run(dag, "Cello", small);
  const auto m_large = test::run(dag, "Cello", large);
  EXPECT_LT(m_large.dram_bytes, m_small.dram_bytes);
}

TEST(Engine, BicgstabCelloWins) {
  workloads::BiCgStabShape s;
  s.m = 81920;
  s.nnz = 327680;
  s.iterations = 5;
  const auto dag = workloads::build_bicgstab_dag(s);
  AcceleratorConfig arch;
  const auto flex = test::run(dag, "Flexagon", arch);
  const auto cello = test::run(dag, "Cello", arch);
  EXPECT_LT(cello.dram_bytes, flex.dram_bytes);
}

TEST(Engine, TrafficByTensorAccountsEverything) {
  const auto dag = workloads::build_cg_dag(small_cg());
  AcceleratorConfig arch;
  const auto m = test::run(dag, "Cello", arch);
  Bytes sum = 0;
  for (const auto& [base, b] : m.traffic_by_tensor) sum += b;
  EXPECT_EQ(sum, m.dram_bytes);
}

}  // namespace
