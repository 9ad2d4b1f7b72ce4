// Tests for the LLM decode subsystem: the llm: workload builder (append-only
// KV-cache chains in the TensorDag), the KvCachePolicy buffer model, and the
// sweep bit-identity guarantees the policy must uphold.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cello/cello.hpp"
#include "common/error.hpp"
#include "sim/policies/kv_cache_policy.hpp"
#include "sim/workload_registry.hpp"
#include "workloads/llm.hpp"
#include "test_helpers.hpp"

namespace {

using namespace cello;
using sim::AcceleratorConfig;
using sim::ConfigRegistry;
using sim::Simulator;
using sim::SweepRunner;

// ---- llm DAG structure -------------------------------------------------------

TEST(LlmDag, StructureAndAppendChains) {
  workloads::LlmShape shape;  // layers=2, heads=8, d_model=512, seq=128, T=8
  const auto dag = workloads::build_llm_decode_dag(shape);
  // 8 ops per (layer, step): qkv, k_append, v_append, attn, ctx, proj, mlp1, mlp2.
  EXPECT_EQ(dag.ops().size(), 2u * 8u * 8u);

  // Each layer's K/V chain: external prefill head at extent seq, then one
  // appended row per step, annotated append-only with the right delta.
  const Bytes row = 512 * 2;  // kv_width * word_bytes (gqa == heads)
  int chain_heads = 0, chain_links = 0;
  for (const auto& t : dag.tensors()) {
    if (!t.append_only) continue;
    if (t.append_prev == ir::kInvalidTensor) {
      ++chain_heads;
      EXPECT_EQ(dag.appended_bytes(t.id), t.bytes());
      EXPECT_EQ(t.bytes(), 128 * row);  // prefill extent
    } else {
      ++chain_links;
      EXPECT_EQ(dag.appended_bytes(t.id), row);  // exactly one new row
      EXPECT_GT(t.bytes(), dag.tensor(t.append_prev).bytes());
    }
  }
  EXPECT_EQ(chain_heads, 2 * 2);             // K + V per layer
  EXPECT_EQ(chain_links, 2 * 2 * 8);         // one link per step
  // '@' instances fold onto one base whose footprint is the FINAL extent.
  const auto map = sim::AddressMap::build(dag);
  bool saw_k1 = false;
  for (const auto& e : map.entries)
    if (e.base == "K_1") {
      saw_k1 = true;
      EXPECT_EQ(e.bytes, (128 + 8) * row);
    }
  EXPECT_TRUE(saw_k1);
}

TEST(LlmDag, Seq0PrefillOnlyAndGqa) {
  // seq=0: the chain head is an empty cache — builds and simulates.
  workloads::LlmShape shape;
  shape.seq = 0;
  shape.layers = 1;
  shape.decode_steps = 4;
  const auto dag = workloads::build_llm_decode_dag(shape);
  for (const auto& t : dag.tensors())
    if (t.append_only && t.append_prev == ir::kInvalidTensor) {
      EXPECT_EQ(t.bytes(), 0u);
    }
  const auto m = Simulator(AcceleratorConfig{}).run(dag, ConfigRegistry::global().at("Cello"));
  EXPECT_GT(m.total_macs, 0);
  EXPECT_GT(m.seconds, 0.0);

  // GQA shrinks the KV row: kv_width = (d_model / heads) * gqa.
  workloads::LlmShape gqa = shape;
  gqa.gqa = 2;  // 8 query heads sharing 2 KV heads
  const auto gdag = workloads::build_llm_decode_dag(gqa);
  const Bytes gqa_row = (512 / 8) * 2 * 2;  // head_dim * kv_heads * word_bytes
  for (const auto& t : gdag.tensors())
    if (t.append_only && t.append_prev != ir::kInvalidTensor) {
      EXPECT_EQ(gdag.appended_bytes(t.id), gqa_row);
    }
  EXPECT_THROW(workloads::build_llm_decode_dag({.heads = 8, .gqa = 3}), Error);
  EXPECT_THROW(workloads::build_llm_decode_dag({.heads = 8, .d_model = 100}), Error);
}

// ---- KvCachePolicy unit behavior ---------------------------------------------

chord::TensorMeta kv_meta(i32 id, Bytes extent, Bytes appended) {
  chord::TensorMeta m;
  m.id = id;
  m.name = "K_" + std::to_string(id);
  m.bytes = extent;
  m.append_only = true;
  m.appended_bytes = appended;
  return m;
}

TEST(KvCachePolicy, AppendWritesPinAndReadsHitResident) {
  AcceleratorConfig arch;
  arch.sram_bytes = 1 << 20;
  sim::KvCachePolicy policy(arch);
  // Chain head: 1000-byte prefill pins dirty, no DRAM traffic yet.
  auto svc = policy.write_tensor(kv_meta(1, 1000, 1000));
  EXPECT_EQ(svc.total(), 0u);
  EXPECT_EQ(policy.resident_bytes(), 1000u);
  // Step read over the grown extent: resident prefix hits, tail misses.
  svc = policy.read_tensor(kv_meta(1, 1200, 200));
  EXPECT_EQ(svc.dram_read, 200u);
  EXPECT_EQ(svc.dram_write, 0u);
  EXPECT_EQ(policy.stats().kv_read_hit_bytes, 1000u);
  EXPECT_EQ(policy.stats().kv_read_miss_bytes, 200u);
  EXPECT_EQ(policy.resident_bytes(), 1200u);  // fetched tail re-installed
  // Non-append tensors stream at full footprint, untouched by the ring.
  chord::TensorMeta weight;
  weight.id = 7;
  weight.name = "W";
  weight.bytes = 4096;
  EXPECT_EQ(policy.read_tensor(weight).dram_read, 4096u);
  EXPECT_EQ(policy.write_tensor(weight).dram_write, 4096u);
  EXPECT_EQ(policy.resident_bytes(), 1200u);
}

TEST(KvCachePolicy, RingWrapEvictsOldestAndSpillsDirty) {
  AcceleratorConfig arch;
  arch.sram_bytes = 1000;  // tiny budget: the ring must wrap
  sim::KvCachePolicy policy(arch);
  // Ten dirty 300-byte appends against a 1000-byte budget.
  Bytes spilled = 0;
  for (i32 step = 0; step < 10; ++step) {
    const Bytes extent = 300u * (step + 1);
    spilled += policy.write_tensor(kv_meta(1, extent, 300)).dram_write;
  }
  EXPECT_LE(policy.resident_bytes(), arch.sram_bytes);
  EXPECT_GT(policy.stats().ring_evictions, 0u);
  // Every evicted segment was dirty (pinned on write, never written through):
  // total traffic = total appended - still-resident.
  EXPECT_EQ(spilled, 3000u - policy.resident_bytes());
  EXPECT_EQ(policy.stats().kv_spill_bytes, spilled);
  EXPECT_EQ(policy.stats().peak_resident_bytes, 1200u);  // 900 + 300 before evict

  // Retire releases residency without writeback; drain then has nothing.
  policy.retire(1);
  EXPECT_EQ(policy.resident_bytes(), 0u);
  EXPECT_FALSE(policy.drain({}).has_value());
}

TEST(KvCachePolicy, DrainWritesBackLiveDirtyRowsOnce) {
  AcceleratorConfig arch;
  sim::KvCachePolicy policy(arch);
  policy.write_tensor(kv_meta(1, 500, 500));
  policy.write_tensor(kv_meta(2, 800, 800));
  const auto items = policy.drain({});
  ASSERT_TRUE(items.has_value());
  ASSERT_EQ(items->size(), 2u);
  EXPECT_EQ((*items)[0].base, "K_1");  // deterministic: sorted by base id
  EXPECT_EQ((*items)[0].dram_write, 500u);
  EXPECT_EQ((*items)[1].dram_write, 800u);
  EXPECT_FALSE(policy.drain({}).has_value());  // second drain: nothing dirty
}

// ---- end-to-end decode behavior ----------------------------------------------

TEST(LlmDecode, PerStepKvGrowthVisibleInMetrics) {
  // Under explicit buffers every step rewrites the full cache extent, so the
  // scheduled append/attention ops get strictly costlier step over step —
  // the per-step KV growth the IR annotation carries into RunMetrics.
  const auto wl = sim::WorkloadRegistry::global().resolve("llm:layers=1,seq=512");
  const auto m =
      Simulator(AcceleratorConfig{}).run(*wl.dag, ConfigRegistry::global().at("Flexagon"));
  Bytes early = 0, late = 0;
  for (const auto& op : m.per_op) {
    if (op.op == "attn_1@0") early = op.dram_bytes;
    if (op.op == "attn_1@7") late = op.dram_bytes;
  }
  ASSERT_GT(early, 0u);
  EXPECT_GT(late, early);
}

TEST(LlmDecode, DecodePastSramBudgetSpills) {
  // KV footprint (~8.4 MB across 2 layers) far past a 1 MiB budget: the KV
  // ring must wrap and the spill traffic must show up against the K/V bases.
  const auto wl =
      sim::WorkloadRegistry::global().resolve("llm:d_model=512,seq=2048,decode_steps=8,layers=2");
  AcceleratorConfig small;
  small.sram_bytes = 1 << 20;
  const auto m = Simulator(small).run(*wl.dag, ConfigRegistry::global().at("Flex+KV"));
  Bytes kv_write = 0;
  for (const auto& [base, bytes] : m.traffic_by_tensor)
    if (base.starts_with("K_") || base.starts_with("V_")) kv_write += bytes;
  EXPECT_GT(kv_write, 0u) << "budget-exceeding decode must spill KV traffic";
}

TEST(LlmDecode, KvCacheBeatsLruOnDocumentedConfig) {
  // The documented win (README): KV extent 8.4 MB > 4 MiB SRAM makes LRU
  // thrash weights against cache lines; the append-aware ring does not.
  const auto wl =
      sim::WorkloadRegistry::global().resolve("llm:d_model=512,seq=2048,decode_steps=8,layers=2");
  const AcceleratorConfig arch;
  const Simulator simulator(arch);
  const auto& registry = ConfigRegistry::global();
  const auto kv = simulator.run(*wl.dag, registry.at("Flex+KV"));
  const auto lru = simulator.run(*wl.dag, registry.at("Flex+LRU"));
  const auto explicit_buf = simulator.run(*wl.dag, registry.at("Flexagon"));
  EXPECT_LT(kv.dram_bytes, lru.dram_bytes);
  EXPECT_LT(kv.dram_bytes, explicit_buf.dram_bytes);
}

// ---- sweep bit-identity ------------------------------------------------------

TEST(LlmSweep, PooledCellsBitIdenticalToFreshRuns) {
  // llm cells across the sweep pool (shared prebuild + per-worker RunScratch,
  // one KV policy per cell) must match cache-free per-cell Simulator runs and be
  // thread-count invariant — mirroring sweep_test for the new policy.
  const std::vector<std::string> spec_texts = {
      "llm:layers=1,seq=256,decode_steps=4",
      "llm:d_model=256,decode_steps=6,gqa=2",
  };
  std::vector<std::string> config_names = ConfigRegistry::table4_names();
  config_names.push_back("Flex+KV");
  const AcceleratorConfig arch;

  const auto rows = test::workloads(spec_texts);
  const auto configs = test::configs(config_names);
  const auto serial = SweepRunner(/*threads=*/1).run(rows, configs, {arch});
  const auto parallel = SweepRunner(/*threads=*/4).run(rows, configs, {arch});
  ASSERT_EQ(serial.size(), spec_texts.size() * config_names.size());
  ASSERT_EQ(parallel.size(), serial.size());

  const auto& registry = ConfigRegistry::global();
  for (size_t wi = 0; wi < spec_texts.size(); ++wi) {
    const sim::Workload wl = sim::WorkloadRegistry::global().resolve(spec_texts[wi]);
    const Simulator simulator(arch);
    for (size_t ci = 0; ci < config_names.size(); ++ci) {
      const auto& s = serial[wi * config_names.size() + ci];
      const auto& p = parallel[wi * config_names.size() + ci];
      EXPECT_EQ(s.metrics.seconds, p.metrics.seconds) << s.workload << "/" << s.config;
      EXPECT_EQ(s.metrics.dram_bytes, p.metrics.dram_bytes) << s.workload << "/" << s.config;
      // Cache-free reference rebuilds schedule, map and policy per cell.
      const auto reference = simulator.run(*wl.dag, registry.at(config_names[ci]));
      EXPECT_EQ(s.metrics.seconds, reference.seconds) << s.workload << "/" << s.config;
      EXPECT_EQ(s.metrics.dram_read_bytes, reference.dram_read_bytes)
          << s.workload << "/" << s.config;
      EXPECT_EQ(s.metrics.dram_write_bytes, reference.dram_write_bytes)
          << s.workload << "/" << s.config;
      EXPECT_EQ(s.metrics.sram_line_accesses, reference.sram_line_accesses)
          << s.workload << "/" << s.config;
      EXPECT_EQ(s.metrics.onchip_energy_pj, reference.onchip_energy_pj)
          << s.workload << "/" << s.config;
      EXPECT_EQ(s.metrics.traffic_by_tensor, reference.traffic_by_tensor)
          << s.workload << "/" << s.config;
    }
  }
}

}  // namespace
