// score::ReuseIndex / ReuseCursor / RunScratch pinning.
//
// The shared-setup fast path (immutable ReuseIndex + reused RunScratch) must
// be bit-identical to a fresh, all-state-rebuilt Simulator::run for every
// Table IV preset — this is what lets SweepRunner share one index per
// (workload, schedule-policy) pair and reuse one scratch per worker across
// cells.  Also pins the counting-pass index builder against a reference
// sort-based construction (the retired BaseReuse algorithm).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/registry.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "sim/workload_registry.hpp"

namespace {

using namespace cello;

void expect_same_metrics(const sim::RunMetrics& a, const sim::RunMetrics& b,
                         const std::string& what) {
  EXPECT_EQ(a.seconds, b.seconds) << what;
  EXPECT_EQ(a.total_macs, b.total_macs) << what;
  EXPECT_EQ(a.dram_bytes, b.dram_bytes) << what;
  EXPECT_EQ(a.dram_read_bytes, b.dram_read_bytes) << what;
  EXPECT_EQ(a.dram_write_bytes, b.dram_write_bytes) << what;
  EXPECT_EQ(a.offchip_energy_pj, b.offchip_energy_pj) << what;
  EXPECT_EQ(a.onchip_energy_pj, b.onchip_energy_pj) << what;
  EXPECT_EQ(a.sram_line_accesses, b.sram_line_accesses) << what;
  EXPECT_EQ(a.traffic_by_tensor, b.traffic_by_tensor) << what;
  ASSERT_EQ(a.per_op.size(), b.per_op.size()) << what;
  for (size_t i = 0; i < a.per_op.size(); ++i) {
    EXPECT_EQ(a.per_op[i].op, b.per_op[i].op) << what << " op " << i;
    EXPECT_EQ(a.per_op[i].macs, b.per_op[i].macs) << what << " op " << i;
    EXPECT_EQ(a.per_op[i].dram_bytes, b.per_op[i].dram_bytes) << what << " op " << i;
  }
}

/// The retired per-cell construction: collect every tensor's use positions
/// (one per operand occurrence, in step order), interleave them into their
/// base's bucket, then sort each bucket.
std::vector<std::vector<i64>> sort_based_reference(const ir::TensorDag& dag,
                                                   const score::Schedule& sched,
                                                   const sim::AddressMap& map) {
  std::vector<std::vector<i64>> use_positions(dag.tensors().size());
  for (size_t i = 0; i < sched.steps.size(); ++i)
    for (ir::TensorId in : dag.op(sched.steps[i].op).inputs)
      use_positions[in].push_back(static_cast<i64>(i));
  std::vector<std::vector<i64>> uses(map.entries.size());
  for (const auto& t : dag.tensors())
    for (i64 p : use_positions[t.id]) uses[map.base_id(t.id)].push_back(p);
  for (auto& u : uses) std::sort(u.begin(), u.end());
  return uses;
}

const std::vector<std::string>& workload_specs() {
  // CG over a real matrix (exercises the trace-driven CSR gather) + GNN.
  static const std::vector<std::string> kSpecs = {"cg:iters=5,n=16", "gnn:cora"};
  return kSpecs;
}

// Shared immutable index + one RunScratch reused sequentially across every
// (workload, preset) cell — cursor rewinds and vector re-assignments included
// — must reproduce fresh per-cell runs exactly.
TEST(ReuseIndex, SharedIndexAndScratchBitIdenticalAcrossPresets) {
  const sim::AcceleratorConfig arch;
  const auto& registry = sim::ConfigRegistry::global();
  sim::RunScratch scratch;  // deliberately shared across all cells below

  for (const auto& spec : workload_specs()) {
    const sim::Workload wl = sim::WorkloadRegistry::global().resolve(spec);
    const sim::Simulator simulator(arch, wl.matrix.get());
    const sim::AddressMap map = sim::AddressMap::build(*wl.dag);

    for (const auto& name : sim::ConfigRegistry::table4_names()) {
      const sim::Configuration& config = registry.at(name);
      const score::Schedule sched =
          score::build_schedule(*wl.dag, simulator.schedule_options(config));
      const score::ReuseIndex index =
          score::ReuseIndex::build(*wl.dag, sched, map.base_of, map.entries.size());

      const sim::RunMetrics fresh = simulator.run(*wl.dag, config);
      sim::RunArtifacts art;
      art.schedule = &sched;
      art.address_map = &map;
      art.reuse_index = &index;
      art.scratch = &scratch;
      const sim::RunMetrics shared = simulator.run(*wl.dag, config, art);
      expect_same_metrics(fresh, shared, wl.name + "/" + name);
    }
  }
}

// Re-running the same cell through the same scratch must change nothing: the
// cursor rewind and the vector re-assignments restore fresh-run state.
TEST(ReuseIndex, ScratchResetIsCompleteBetweenRuns) {
  const sim::AcceleratorConfig arch;
  const auto& registry = sim::ConfigRegistry::global();
  const sim::Workload wl = sim::WorkloadRegistry::global().resolve("cg:iters=5,n=16");
  const sim::Simulator simulator(arch, wl.matrix.get());
  const sim::AddressMap map = sim::AddressMap::build(*wl.dag);

  sim::RunScratch scratch;
  for (const auto& name : sim::ConfigRegistry::table4_names()) {
    const sim::Configuration& config = registry.at(name);
    const score::Schedule sched =
        score::build_schedule(*wl.dag, simulator.schedule_options(config));
    const score::ReuseIndex index =
        score::ReuseIndex::build(*wl.dag, sched, map.base_of, map.entries.size());
    sim::RunArtifacts art;
    art.schedule = &sched;
    art.address_map = &map;
    art.reuse_index = &index;
    art.scratch = &scratch;
    const sim::RunMetrics first = simulator.run(*wl.dag, config, art);
    const sim::RunMetrics again = simulator.run(*wl.dag, config, art);
    expect_same_metrics(first, again, "repeat/" + name);
  }
}

// The counting-pass builder must produce exactly the positions the sort-based
// reference produces: same per-base counts, same ascending order.
TEST(ReuseIndex, CountingBuildMatchesSortReference) {
  const sim::AcceleratorConfig arch;
  const auto& registry = sim::ConfigRegistry::global();
  const std::vector<std::string> specs = {"cg:m=4096,n=16,iters=4", "gnn:cora",
                                          "resnet:spatial=784"};
  // Cello (pipelining) and Flexagon (op-by-op) cover both ScheduleOptions
  // slots a sweep distinguishes.
  const std::vector<std::string> configs = {"Cello", "Flexagon"};

  for (const auto& spec : specs) {
    const sim::Workload wl = sim::WorkloadRegistry::global().resolve(spec);
    const sim::AddressMap map = sim::AddressMap::build(*wl.dag);
    const sim::Simulator simulator(arch, wl.matrix.get());
    for (const auto& name : configs) {
      const score::Schedule sched =
          score::build_schedule(*wl.dag, simulator.schedule_options(registry.at(name)));
      const score::ReuseIndex index =
          score::ReuseIndex::build(*wl.dag, sched, map.base_of, map.entries.size());
      const auto reference = sort_based_reference(*wl.dag, sched, map);

      ASSERT_EQ(index.num_bases(), reference.size()) << spec << "/" << name;
      for (size_t b = 0; b < reference.size(); ++b) {
        ASSERT_EQ(index.count(static_cast<i32>(b)), reference[b].size())
            << spec << "/" << name << " base " << b;
        for (size_t k = 0; k < reference[b].size(); ++k)
          EXPECT_EQ(index.positions()[index.offsets()[b] + k], reference[b][k])
              << spec << "/" << name << " base " << b << " pos " << k;
      }
    }
  }
}

// Cursor queries at monotone positions agree with direct counting over the
// index, including bases with no uses at all (external results).
TEST(ReuseIndex, CursorMatchesDirectCount) {
  const sim::Workload wl = sim::WorkloadRegistry::global().resolve("cg:m=4096,n=16,iters=3");
  const sim::AddressMap map = sim::AddressMap::build(*wl.dag);
  const sim::Simulator simulator{sim::AcceleratorConfig{}};
  const score::Schedule sched = score::build_schedule(
      *wl.dag, simulator.schedule_options(sim::ConfigRegistry::global().at("Cello")));
  const score::ReuseIndex index =
      score::ReuseIndex::build(*wl.dag, sched, map.base_of, map.entries.size());

  score::ReuseCursor cursor;
  cursor.reset(index);
  const i64 steps = static_cast<i64>(sched.steps.size());
  for (i64 pos = -1; pos <= steps; ++pos) {
    for (size_t b = 0; b < index.num_bases(); ++b) {
      const i32 base = static_cast<i32>(b);
      i32 want_remaining = 0;
      i64 want_next = -1;
      for (u32 k = index.offsets()[b]; k < index.offsets()[b + 1]; ++k) {
        const i64 p = index.positions()[k];
        if (p > pos) {
          ++want_remaining;
          if (want_next < 0) want_next = p - pos;
        }
      }
      EXPECT_EQ(cursor.remaining_after(index, base, pos), want_remaining)
          << "base " << b << " pos " << pos;
      EXPECT_EQ(cursor.next_distance(index, base, pos), want_next)
          << "base " << b << " pos " << pos;
    }
  }
}

}  // namespace
