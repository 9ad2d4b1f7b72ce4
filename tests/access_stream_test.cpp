// Capture/replay servicing of the trace-driven cache path
// (sim/access_stream.hpp, cache/cache_replay.hpp).  Replay is the only way a
// cache policy is serviced, so it is pinned against a test-local reference:
// a SetAssocCache driven op by op straight from the span emitter — no
// capture, no period detection, no replay engine.  Per step traffic and
// valid-line fills, and the final cache stats, must match on every golden
// workload under the four cache presets, for the AVX-512 compact engine, the
// scalar engine (CELLO_DISABLE_AVX512) and a 16-way geometry.  Also pins
// capture determinism (fingerprint + field level), supplied-stream runs ≡
// self-capturing runs, and the checked refusal of incompatible or non-fresh
// replays.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "cache/cache_replay.hpp"
#include "common/error.hpp"
#include "sim/access_stream.hpp"
#include "sim/policies/access_gen.hpp"
#include "sim/policies/cache_policy.hpp"
#include "sim/policies/schedule_policy.hpp"
#include "sim/registry.hpp"
#include "sim/simulator.hpp"
#include "sparse/datasets.hpp"
#include "test_helpers.hpp"
#include "workloads/cg.hpp"
#include "workloads/gnn.hpp"
#include "workloads/resnet.hpp"

namespace {

using namespace cello;
using namespace cello::sim;
using test::ScopedEnv;

void expect_metrics_equal(const RunMetrics& a, const RunMetrics& b, const std::string& what) {
  EXPECT_EQ(a.seconds, b.seconds) << what;
  EXPECT_EQ(a.total_macs, b.total_macs) << what;
  EXPECT_EQ(a.dram_read_bytes, b.dram_read_bytes) << what;
  EXPECT_EQ(a.dram_write_bytes, b.dram_write_bytes) << what;
  EXPECT_EQ(a.dram_bytes, b.dram_bytes) << what;
  EXPECT_EQ(a.sram_line_accesses, b.sram_line_accesses) << what;
  EXPECT_EQ(a.onchip_energy_pj, b.onchip_energy_pj) << what;
  EXPECT_EQ(a.offchip_energy_pj, b.offchip_energy_pj) << what;
  EXPECT_EQ(a.traffic_by_tensor, b.traffic_by_tensor) << what;
  ASSERT_EQ(a.per_op.size(), b.per_op.size()) << what;
  for (size_t i = 0; i < a.per_op.size(); ++i) {
    EXPECT_EQ(a.per_op[i].op, b.per_op[i].op) << what << " op " << i;
    EXPECT_EQ(a.per_op[i].macs, b.per_op[i].macs) << what << " op " << i;
    EXPECT_EQ(a.per_op[i].dram_bytes, b.per_op[i].dram_bytes) << what << " op " << i;
  }
}

/// Reference servicing: drive `cache` op by op with the spans the emitter
/// derives for the buffer-routed operands, recording each op's DRAM traffic
/// and the valid lines it added (counted by scanning the tag lanes).
std::vector<BufferService> reference_services(const ir::TensorDag& dag,
                                              const score::Schedule& sched,
                                              const AddressMap& map,
                                              const sparse::CsrMatrix* matrix,
                                              const AcceleratorConfig& arch, const Router& router,
                                              cache::SetAssocCache& cache) {
  OpTrace t{&dag, nullptr, &map, matrix, {}, true};
  OpAccessScratch scratch;
  std::vector<BufferService> out;
  for (const auto& step : sched.steps) {
    const ir::EinsumOp& op = dag.op(step.op);
    t.op = &op;
    t.inputs.clear();
    for (ir::TensorId in : op.inputs)
      if (std::find(t.inputs.begin(), t.inputs.end(), in) == t.inputs.end() &&
          dag.tensor(op.output).append_prev != in && router.route_input(op, in) == Route::Buffer)
        t.inputs.push_back(in);
    t.service_output = router.route_output(op) == Route::Buffer;
    const cache::CacheStats before = cache.stats();
    const u64 valid_before = cache.valid_lines();
    emit_op_accesses(t, arch, scratch,
                     [&](Addr a, Bytes l, bool w) { cache.access_range(a, l, w); });
    const BufferService traffic = cache.traffic_since(before);
    out.push_back({traffic.dram_read, traffic.dram_write, cache.valid_lines() - valid_before});
  }
  return out;
}

/// The metrics-golden workload set: synthetic CG (periodic — exercises the
/// period detector and fast-forward), GNN and ResNet (linear streams), and CG
/// over a real sparse matrix (CSR gather capture).
struct GoldenWorkload {
  std::string name;
  ir::TensorDag dag;
  const sparse::CsrMatrix* matrix;
};

std::vector<GoldenWorkload> golden_workloads(const sparse::CsrMatrix& fv1) {
  std::vector<GoldenWorkload> wls;
  wls.push_back({"cg", workloads::build_cg_dag({81920, 16, 327680, 5, 4}), nullptr});
  wls.push_back({"gnn", workloads::build_gnn_dag({2708, 9464, 1433, 7}), nullptr});
  wls.push_back({"resnet", workloads::build_resnet_block_dag({}), nullptr});
  wls.push_back(
      {"cg_fv1",
       workloads::build_cg_dag({sparse::dataset_by_name("fv1").rows, 16, fv1.nnz(), 3, 4}),
       &fv1});
  return wls;
}

// Replay ≡ the reference, per step and in final cache state, on every golden
// workload x the four cache presets x {AVX-512 compact engine, scalar engine},
// plus a 16-way geometry on the smaller workloads.
TEST(AccessStream, ReplayMatchesReferenceOnGoldens) {
  const sparse::CsrMatrix fv1 = sparse::instantiate(sparse::dataset_by_name("fv1"));
  AcceleratorConfig wide;
  wide.cache_associativity = 16;
  struct Engine {
    const char* name;
    AcceleratorConfig arch;
    bool scalar;
  };
  const std::vector<Engine> engines = {
      {"simd", AcceleratorConfig{}, false}, {"scalar", AcceleratorConfig{}, true},
      {"16-way", wide, false}};

  for (const auto& wl : golden_workloads(fv1)) {
    for (const char* cname : {"Flex+LRU", "Flex+BRRIP", "SCORE+LRU", "SCORE+BRRIP"}) {
      const Configuration& config = ConfigRegistry::global().at(cname);
      for (const Engine& e : engines) {
        // The generic 16-way layout replays linearly (no fast-forward); the
        // large synthetic CG would dominate the suite's runtime.
        if (e.arch.cache_associativity != 8 && wl.name == "cg") continue;
        const std::string what = wl.name + "/" + cname + "/" + e.name;
        const Simulator simulator(e.arch, wl.matrix);
        const score::Schedule sched =
            score::build_schedule(wl.dag, simulator.schedule_options(config));
        const AddressMap map = AddressMap::build(wl.dag);
        const RouterTables tables =
            RouterTables::build(wl.dag, sched, config.schedule, config.allow_delayed_hold, e.arch);
        const Router router(wl.dag, sched, config.schedule, tables);
        const AccessStream stream =
            AccessStream::capture(wl.dag, sched, map, wl.matrix, e.arch, router);

        const cache::Policy repl = std::string(cname).ends_with("LRU") ? cache::Policy::Lru
                                                                       : cache::Policy::Brrip;
        CachePolicy policy(e.arch, repl);
        std::vector<BufferService> got;
        {
          std::optional<ScopedEnv> scalar;
          if (e.scalar) scalar.emplace("CELLO_DISABLE_AVX512", "1");
          policy.replay(stream, got);
        }
        const cache::SetAssocCache& replayed = policy.cache();
        cache::SetAssocCache ref(e.arch.sram_bytes, e.arch.line_bytes,
                                 e.arch.cache_associativity, repl);
        const auto want =
            reference_services(wl.dag, sched, map, wl.matrix, e.arch, router, ref);

        ASSERT_EQ(got.size(), want.size()) << what;
        for (size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(got[i].dram_read, want[i].dram_read) << what << " step " << i;
          EXPECT_EQ(got[i].dram_write, want[i].dram_write) << what << " step " << i;
          EXPECT_EQ(got[i].fills, want[i].fills) << what << " step " << i;
        }
        const cache::CacheStats& a = replayed.stats();
        const cache::CacheStats& b = ref.stats();
        EXPECT_EQ(a.accesses, b.accesses) << what;
        EXPECT_EQ(a.misses, b.misses) << what;
        EXPECT_EQ(a.evictions, b.evictions) << what;
        EXPECT_EQ(a.writebacks, b.writebacks) << what;
        EXPECT_EQ(replayed.valid_lines(), ref.valid_lines()) << what;
        EXPECT_EQ(replayed.valid_lines(), a.misses - a.evictions) << what;
        // The end-of-run drain reads the dirty bits replay left behind.
        const cache::CacheStats ref_replayed = ref.stats();
        ref.flush();
        EXPECT_EQ(policy.drain({})->front().dram_write, ref.traffic_since(ref_replayed).dram_write)
            << what;
      }
    }
  }
}

// A supplied stream only shares the capture: the run's metrics equal those of
// a run that captures its own, on the real-matrix golden.
TEST(AccessStream, SuppliedStreamMatchesSelfCapture) {
  const sparse::CsrMatrix fv1 = sparse::instantiate(sparse::dataset_by_name("fv1"));
  const ir::TensorDag dag =
      workloads::build_cg_dag({sparse::dataset_by_name("fv1").rows, 16, fv1.nnz(), 5, 4});
  const AcceleratorConfig arch;
  const Simulator simulator(arch, &fv1);

  for (const char* cname : {"Flex+LRU", "Flex+BRRIP"}) {
    const auto& config = ConfigRegistry::global().at(cname);
    const score::Schedule sched = score::build_schedule(dag, simulator.schedule_options(config));
    const AddressMap map = AddressMap::build(dag);
    const RouterTables tables =
        RouterTables::build(dag, sched, config.schedule, config.allow_delayed_hold, arch);
    const Router router(dag, sched, config.schedule, tables);
    const AccessStream stream = AccessStream::capture(dag, sched, map, &fv1, arch, router);
    EXPECT_TRUE(stream.compatible(arch));
    EXPECT_EQ(stream.schedule_steps, sched.steps.size());

    RunArtifacts art;
    art.schedule = &sched;
    art.address_map = &map;
    const RunMetrics self = simulator.run(dag, config, art);
    art.access_stream = &stream;
    expect_metrics_equal(self, simulator.run(dag, config, art), cname);
  }
}

// Two captures of the same slot must be identical — as a whole and in every
// header/array field — and the synthetic-CG stream must actually be periodic
// (otherwise the fast-forward path is silently untested).
TEST(AccessStream, CaptureIsDeterministic) {
  const ir::TensorDag dag = workloads::build_cg_dag({81920, 16, 327680, 5, 4});
  const AcceleratorConfig arch;
  const Simulator simulator(arch);
  const auto& config = ConfigRegistry::global().at("Flex+LRU");
  const score::Schedule sched = score::build_schedule(dag, simulator.schedule_options(config));
  const AddressMap map = AddressMap::build(dag);
  const RouterTables tables =
      RouterTables::build(dag, sched, config.schedule, config.allow_delayed_hold, arch);
  const Router router(dag, sched, config.schedule, tables);

  const AccessStream a = AccessStream::capture(dag, sched, map, nullptr, arch, router);
  const AccessStream b = AccessStream::capture(dag, sched, map, nullptr, arch, router);

  EXPECT_EQ(a, b);
  EXPECT_EQ(a.line_bytes, b.line_bytes);
  EXPECT_EQ(a.rf_bytes, b.rf_bytes);
  EXPECT_EQ(a.schedule_steps, b.schedule_steps);
  EXPECT_EQ(a.prefix_steps, b.prefix_steps);
  EXPECT_EQ(a.period_steps, b.period_steps);
  EXPECT_EQ(a.period_count, b.period_count);
  EXPECT_EQ(a.suffix_steps, b.suffix_steps);
  EXPECT_EQ(a.addr, b.addr);
  EXPECT_EQ(a.len, b.len);
  EXPECT_EQ(a.write, b.write);
  EXPECT_EQ(a.op_end, b.op_end);
  EXPECT_EQ(a.min_addr, b.min_addr);
  EXPECT_EQ(a.max_addr, b.max_addr);

  EXPECT_GT(a.period_steps, 0u) << "iterative CG should capture as periodic";
  EXPECT_GE(a.period_count, 2u);
  EXPECT_EQ(a.materialized_steps() + a.period_steps * (a.period_count - 1),
            a.schedule_steps);
}

// Fast-forward kicks in at the same occurrence on both engines, and on fv1 CG
// (the Fig. 12 panel's cache cells) it kicks in early: a drift here means the
// fixed-point check lost sight of a converged state.
TEST(AccessStream, FastForwardOccurrencesArePinned) {
  const auto& spec = sparse::dataset_by_name("fv1");
  const sparse::CsrMatrix fv1 = sparse::instantiate(spec);
  const AcceleratorConfig arch;  // 4 MiB, 8-way
  ASSERT_EQ(arch.sram_bytes, 4u << 20);
  for (const i64 n : {1, 16}) {
    const ir::TensorDag dag = workloads::build_cg_dag({spec.rows, n, fv1.nnz(), 10, 4});
    const Simulator simulator(arch, &fv1);
    for (const char* cname : {"Flex+LRU", "Flex+BRRIP"}) {
      const std::string what = std::string(cname) + " n=" + std::to_string(n);
      const auto& config = ConfigRegistry::global().at(cname);
      const score::Schedule sched =
          score::build_schedule(dag, simulator.schedule_options(config));
      const AddressMap map = AddressMap::build(dag);
      const RouterTables tables =
          RouterTables::build(dag, sched, config.schedule, config.allow_delayed_hold, arch);
      const Router router(dag, sched, config.schedule, tables);
      const AccessStream stream = AccessStream::capture(dag, sched, map, &fv1, arch, router);
      ASSERT_GE(stream.period_count, 2u) << what;
      const cache::Policy repl =
          std::string(cname).ends_with("LRU") ? cache::Policy::Lru : cache::Policy::Brrip;

      u64 occurrences[2];
      cache::CacheStats stats[2];
      for (const bool direct : {false, true}) {
        std::optional<ScopedEnv> portable;
        if (direct) portable.emplace("CELLO_DISABLE_AVX512", "1");
        cache::SetAssocCache c(arch.sram_bytes, arch.line_bytes, arch.cache_associativity, repl);
        cache::StreamReplayer replayer(c, stream);
        std::vector<BufferService> services;
        replayer.run(services);
        occurrences[direct] = replayer.occurrences_replayed();
        stats[direct] = c.stats();
      }
      EXPECT_EQ(occurrences[0], occurrences[1]) << what;
      EXPECT_LT(occurrences[0], stream.period_count) << what << ": never fast-forwarded";
      EXPECT_EQ(stats[0].hits(), stats[1].hits()) << what;
      EXPECT_EQ(stats[0].writebacks, stats[1].writebacks) << what;
      EXPECT_EQ(occurrences[0], repl == cache::Policy::Lru ? 2u : 3u) << what;
    }
  }
}

// Replay is a checked call: a geometry-incompatible stream and a policy that
// already serviced accesses both throw; a fresh policy replays identically.
TEST(AccessStream, ReplayRefusesIncompatibleOrDirtyState) {
  const ir::TensorDag dag = workloads::build_cg_dag({81920, 16, 327680, 3, 4});
  const AcceleratorConfig arch;
  const Simulator simulator(arch);
  const auto& config = ConfigRegistry::global().at("Flex+LRU");
  const score::Schedule sched = score::build_schedule(dag, simulator.schedule_options(config));
  const AddressMap map = AddressMap::build(dag);
  const RouterTables tables =
      RouterTables::build(dag, sched, config.schedule, config.allow_delayed_hold, arch);
  const Router router(dag, sched, config.schedule, tables);
  const AccessStream stream = AccessStream::capture(dag, sched, map, nullptr, arch, router);

  AcceleratorConfig other = arch;
  other.line_bytes = arch.line_bytes * 2;
  CachePolicy mismatched(other, cache::Policy::Lru);
  std::vector<BufferService> services;
  EXPECT_THROW(mismatched.replay(stream, services), Error);
  EXPECT_TRUE(services.empty());

  CachePolicy dirty(arch, cache::Policy::Lru);
  dirty.replay(stream, services);
  std::vector<BufferService> again;
  EXPECT_THROW(dirty.replay(stream, again), Error) << "second replay on a used policy";
  CachePolicy fresh(arch, cache::Policy::Lru);
  fresh.replay(stream, again);
  ASSERT_EQ(services.size(), again.size());
  for (size_t s = 0; s < services.size(); ++s) {
    EXPECT_EQ(services[s].dram_read, again[s].dram_read) << "step " << s;
    EXPECT_EQ(services[s].dram_write, again[s].dram_write) << "step " << s;
    EXPECT_EQ(services[s].fills, again[s].fills) << "step " << s;
  }
}

}  // namespace
