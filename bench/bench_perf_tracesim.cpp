// Trace-driven simulation throughput (the Fig. 16(b) shape): CG on
// shallow_water1 and a ResNet conv3_x block pushed through the cache-backed
// Table IV baselines (Flex+LRU, Flex+BRRIP) at several SRAM capacities, plus
// Cello as the analytic-policy reference point.
//
// These are the configurations whose wall time bounds every sweep in the
// repo, so this binary seeds the perf trajectory: bench/run_bench.sh runs it
// and writes BENCH_tracesim.json, which future PRs diff against.
#include <benchmark/benchmark.h>

#include <chrono>
#include <sstream>

#include "bench_util.hpp"
#include "noc/topology.hpp"
#include "sim/access_stream.hpp"
#include "sim/policies/schedule_policy.hpp"
#include "sim/registry.hpp"
#include "sim/shard.hpp"
#include "sim/simulator.hpp"
#include "sim/sweep.hpp"
#include "trace/trace.hpp"
#include "workloads/cg.hpp"
#include "workloads/resnet.hpp"

namespace {

using namespace cello;

const sparse::CsrMatrix& shallow_water_matrix() {
  static const sparse::CsrMatrix m =
      sparse::instantiate(sparse::dataset_by_name("shallow_water1"));
  return m;
}

const ir::TensorDag& cg_dag() {
  static const ir::TensorDag dag = [] {
    const auto& spec = sparse::dataset_by_name("shallow_water1");
    auto shape = bench::cg_shape_for(spec, 16, /*iterations=*/5);
    shape.nnz = shallow_water_matrix().nnz();
    return workloads::build_cg_dag(shape);
  }();
  return dag;
}

const ir::TensorDag& resnet_dag() {
  static const ir::TensorDag dag = workloads::build_resnet_block_dag({});
  return dag;
}

void run_config(benchmark::State& state, const ir::TensorDag& dag,
                const sparse::CsrMatrix* matrix, const char* config_name) {
  const auto arch =
      bench::table5_config(1e12, static_cast<Bytes>(state.range(0)) * 1024 * 1024);
  const sim::Simulator simulator(arch, matrix);
  const sim::Configuration& config = sim::ConfigRegistry::global().at(config_name);
  Bytes dram_bytes = 0;
  for (auto _ : state) {
    const sim::RunMetrics m = simulator.run(dag, config);
    dram_bytes = m.dram_bytes;
    benchmark::DoNotOptimize(dram_bytes);
  }
  state.counters["dram_bytes"] =
      benchmark::Counter(static_cast<double>(dram_bytes));
}

void BM_CgFlexLru(benchmark::State& s) {
  run_config(s, cg_dag(), &shallow_water_matrix(), "Flex+LRU");
}
void BM_CgFlexBrrip(benchmark::State& s) {
  run_config(s, cg_dag(), &shallow_water_matrix(), "Flex+BRRIP");
}
void BM_ResnetFlexLru(benchmark::State& s) { run_config(s, resnet_dag(), nullptr, "Flex+LRU"); }
void BM_ResnetFlexBrrip(benchmark::State& s) {
  run_config(s, resnet_dag(), nullptr, "Flex+BRRIP");
}
void BM_CgCello(benchmark::State& s) {
  run_config(s, cg_dag(), &shallow_water_matrix(), "Cello");
}

// ---- trace overhead row -----------------------------------------------------
// The BM_CgCello cell narrated into an in-memory ChromeTraceWriter every
// iteration: the delta against BM_CgCello is the full cost of op-level
// tracing (per-step capture + event formatting + streaming serialization),
// and the trace_events / trace_bytes counters record the trace volume in the
// BENCH_tracesim.json trajectory so serialization changes stay visible.
void BM_TraceOverhead(benchmark::State& state) {
  const auto arch =
      bench::table5_config(1e12, static_cast<Bytes>(state.range(0)) * 1024 * 1024);
  const sim::Simulator simulator(arch, &shallow_water_matrix());
  const sim::Configuration& config = sim::ConfigRegistry::global().at("Cello");
  u64 events = 0, bytes = 0;
  for (auto _ : state) {
    std::ostringstream out;
    trace::ChromeTraceWriter writer(out);
    sim::RunArtifacts art;
    art.trace = &writer;
    const sim::RunMetrics m = simulator.run(cg_dag(), config, art);
    writer.finish();
    events = writer.events();
    bytes = out.str().size();
    benchmark::DoNotOptimize(m.dram_bytes);
  }
  state.counters["trace_events"] = benchmark::Counter(static_cast<double>(events));
  state.counters["trace_bytes"] = benchmark::Counter(static_cast<double>(bytes));
}

// ---- sweep-level rows -------------------------------------------------------
// A one-workload grid over the analytic/CHORD configurations, where schedule
// construction dominates each cell.  The shared row exercises SweepRunner's
// per-(workload, schedule-policy) Schedule/AddressMap cache (8 cells, 2
// schedule builds); the rebuild row replays the pre-cache behavior (one
// schedule + address map per cell) and is the recorded baseline the shared
// row's speedup is quoted against.  threads=1 so the delta is purely
// algorithmic, not thread-pool scaling.

const std::vector<std::string>& sweep_config_names() {
  static const std::vector<std::string> kNames = {
      "Flexagon", "FLAT",           "SET",        "Prelude-only",
      "Cello",    "SCORE+explicit", "FLAT+CHORD", "SET+CHORD"};
  return kNames;
}

const sim::Workload& sweep_cg_workload() {
  static const sim::Workload wl = sim::WorkloadRegistry::global().resolve("cg:iters=20,n=16");
  return wl;
}

void BM_SweepCgAnalyticShared(benchmark::State& state) {
  const auto arch = bench::table5_config(1e12, 4ull * 1024 * 1024);
  const std::vector<sim::Workload> workloads = {sweep_cg_workload()};
  const auto configs = bench::configs(sweep_config_names());
  const sim::SweepRunner runner(/*threads=*/1);
  for (auto _ : state) {
    const auto cells = runner.run(workloads, configs, arch);
    benchmark::DoNotOptimize(cells.back().metrics.dram_bytes);
  }
}

void BM_SweepCgAnalyticRebuild(benchmark::State& state) {
  const auto arch = bench::table5_config(1e12, 4ull * 1024 * 1024);
  const auto& wl = sweep_cg_workload();
  const auto& registry = sim::ConfigRegistry::global();
  const sim::Simulator simulator(arch, wl.matrix.get());
  for (auto _ : state) {
    Bytes dram_bytes = 0;
    for (const auto& name : sweep_config_names())
      dram_bytes += simulator.run(*wl.dag, registry.at(name)).dram_bytes;
    benchmark::DoNotOptimize(dram_bytes);
  }
}

// The same grid as BM_SweepCgAnalyticShared, but split into 3 contiguous
// shards run back-to-back and recombined with merge_shards — the overhead of
// distributing a sweep (per-shard schedule rebuilds, plan/validate/merge
// bookkeeping) shows up as the delta against the Shared row.  threads=1 so
// the comparison is purely algorithmic.
void BM_SweepSharded(benchmark::State& state) {
  const auto arch = bench::table5_config(1e12, 4ull * 1024 * 1024);
  const sim::SweepGrid grid =
      sim::make_grid({"cg:iters=20,n=16"}, sweep_config_names(), arch);
  const sim::SweepRunner runner(/*threads=*/1);
  for (auto _ : state) {
    std::vector<sim::ShardResult> shards(3);
    for (u32 i = 1; i <= 3; ++i) {
      shards[i - 1].grid = grid;
      shards[i - 1].plan = sim::plan_shard(grid, i, 3);
      shards[i - 1].results = runner.run_shard(grid, shards[i - 1].plan);
    }
    const auto merged = sim::merge_shards(shards);
    benchmark::DoNotOptimize(merged.back().metrics.dram_bytes);
  }
}

// ---- setup-path rows --------------------------------------------------------
// Per-cell *setup* cost, separated from steady-state replay cost (the
// setup_ms counter feeds the BENCH_tracesim.json perf trajectory).

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// Construct + destroy the sweep CG workload's DAG (the cold half of a
// WorkloadRegistry::resolve of "cg:iters=20,n=16").  Each node's payloads
// are plain std::vectors, so both ends pay one heap block per payload.
void BM_DagBuild(benchmark::State& state) {
  const auto shape = bench::cg_shape_for(sparse::dataset_by_name("shallow_water1"), 16,
                                         /*iterations=*/20);
  double build_seconds = 0;
  i64 iters = 0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    const ir::TensorDag dag = workloads::build_cg_dag(shape);
    build_seconds += seconds_since(t0);
    ++iters;
    benchmark::DoNotOptimize(dag.ops().size());
  }
  // Construction-only share of the row (the rest is destruction).
  state.counters["setup_ms"] =
      benchmark::Counter(iters > 0 ? build_seconds * 1e3 / static_cast<double>(iters) : 0);
}

// The 8-cell analytic CG grid with *fully shared* immutable setup — one
// AddressMap, one Schedule + ReuseIndex per schedule-options slot — and one
// pooled RunScratch reset between cells.  The recorded baseline row is the
// same grid pre-PR (shared Schedule+AddressMap, but per-cell BaseReuse
// rebuild and fresh per-cell run state), so the speedup isolates the
// ReuseIndex share + scratch pooling.  setup_ms reports the one-time shared
// prebuild.
void BM_ReuseIndexShared(benchmark::State& state) {
  const auto arch = bench::table5_config(1e12, 4ull * 1024 * 1024);
  const auto& wl = sweep_cg_workload();
  const auto& registry = sim::ConfigRegistry::global();
  const sim::Simulator simulator(arch, wl.matrix.get());

  const auto t0 = std::chrono::steady_clock::now();
  const sim::AddressMap map = sim::AddressMap::build(*wl.dag);
  std::vector<score::ScheduleOptions> keys;
  std::vector<size_t> slot_of;
  std::vector<score::Schedule> scheds;
  std::vector<score::ReuseIndex> indexes;
  for (const auto& name : sweep_config_names()) {
    const auto opts = simulator.schedule_options(registry.at(name));
    size_t slot = 0;
    while (slot < keys.size() && !(keys[slot] == opts)) ++slot;
    if (slot == keys.size()) {
      keys.push_back(opts);
      scheds.push_back(score::build_schedule(*wl.dag, opts));
      indexes.push_back(
          score::ReuseIndex::build(*wl.dag, scheds.back(), map.base_of, map.entries.size()));
    }
    slot_of.push_back(slot);
  }
  const double setup_ms = seconds_since(t0) * 1e3;

  sim::RunScratch scratch;
  for (auto _ : state) {
    Bytes dram_bytes = 0;
    for (size_t ci = 0; ci < sweep_config_names().size(); ++ci) {
      const sim::Configuration& config = registry.at(sweep_config_names()[ci]);
      sim::RunArtifacts art;
      art.schedule = &scheds[slot_of[ci]];
      art.address_map = &map;
      art.reuse_index = &indexes[slot_of[ci]];
      art.scratch = &scratch;
      dram_bytes += simulator.run(*wl.dag, config, art).dram_bytes;
    }
    benchmark::DoNotOptimize(dram_bytes);
  }
  state.counters["setup_ms"] = benchmark::Counter(setup_ms);
}

// ---- LLM decode rows --------------------------------------------------------
// The documented budget-exceeding decode (KV extent ~8.4 MB across 2 layers
// vs 4 MiB SRAM) through the KV-cache ring, the LRU baseline it beats, and
// Cello.  These bound the wall time of llm sweep cells.

const sim::Workload& llm_workload() {
  static const sim::Workload wl = sim::WorkloadRegistry::global().resolve(
      "llm:d_model=512,seq=2048,decode_steps=8,layers=2");
  return wl;
}

void BM_LlmDecodeFlexKv(benchmark::State& s) {
  run_config(s, *llm_workload().dag, nullptr, "Flex+KV");
}
void BM_LlmDecodeFlexLru(benchmark::State& s) {
  run_config(s, *llm_workload().dag, nullptr, "Flex+LRU");
}
void BM_LlmDecodeCello(benchmark::State& s) {
  run_config(s, *llm_workload().dag, nullptr, "Cello");
}

// One llm workload over the analytic grid + Flex+KV through the shared-setup
// sweep path, so llm cells ride the same cache/pool trajectory as CG.
void BM_LlmDecodeSweepShared(benchmark::State& state) {
  const auto arch = bench::table5_config(1e12, 4ull * 1024 * 1024);
  std::vector<std::string> names = sweep_config_names();
  names.push_back("Flex+KV");
  const std::vector<sim::Workload> workloads = {llm_workload()};
  const auto configs = bench::configs(names);
  const sim::SweepRunner runner(/*threads=*/1);
  for (auto _ : state) {
    const auto cells = runner.run(workloads, configs, arch);
    benchmark::DoNotOptimize(cells.back().metrics.dram_bytes);
  }
}

// ---- capture/replay rows ----------------------------------------------------
// The AccessStream capture/replay split (sim/access_stream.hpp): one stream
// per (workload, routing key) amortizes address generation — CSR gathers,
// operand partitioning, span emission — across every cache geometry in a
// sweep column, and periodic streams fast-forward once the cache state
// cycles.  BM_ReplaySweepTable4 is the acceptance row: one CG workload fanned
// across all seven Table IV presets through SweepRunner (its recorded
// baseline predates the capture/replay split).  threads=1 so the delta is
// purely algorithmic.

void BM_ReplaySweepTable4(benchmark::State& state) {
  const auto arch = bench::table5_config(1e12, 4ull * 1024 * 1024);
  const std::vector<sim::Workload> workloads = {sweep_cg_workload()};
  const sim::SweepRunner runner(/*threads=*/1);
  for (auto _ : state) {
    const auto cells = runner.run(workloads, bench::table4_configs(), arch);
    benchmark::DoNotOptimize(cells.back().metrics.dram_bytes);
  }
}

// Capture cost alone (the one-time half the sweep amortizes): schedule,
// address map and router are prebuilt, the loop times span derivation +
// period detection over the real shallow_water1 CSR.
void BM_ReplayCapture(benchmark::State& state) {
  const auto arch = bench::table5_config(1e12, 4ull * 1024 * 1024);
  const auto& wl = sweep_cg_workload();
  const sim::Simulator simulator(arch, wl.matrix.get());
  const sim::Configuration& config = sim::ConfigRegistry::global().at("Flex+LRU");
  const score::Schedule sched = score::build_schedule(*wl.dag, simulator.schedule_options(config));
  const sim::AddressMap map = sim::AddressMap::build(*wl.dag);
  const sim::RouterTables tables = sim::RouterTables::build(*wl.dag, sched, config.schedule,
                                                            config.allow_delayed_hold, arch);
  const sim::Router router(*wl.dag, sched, config.schedule, tables);
  size_t spans = 0;
  for (auto _ : state) {
    const sim::AccessStream stream =
        sim::AccessStream::capture(*wl.dag, sched, map, wl.matrix.get(), arch, router);
    spans = stream.spans();
    benchmark::DoNotOptimize(spans);
  }
  state.counters["spans"] = benchmark::Counter(static_cast<double>(spans));
}

// ---- multi-chip rows --------------------------------------------------------
// The arch-driven scale-out path (Sec. V-B): partition the dominant rank,
// simulate one node's shard, price the routed NoC collectives, fold back.
// BM_MultinodeGnn pins the single-cell cost (gnn:cora on a 16-node torus,
// where partition + routing ride on top of a now-smaller per-node run);
// BM_MultinodeCgScaling pins a whole {1,4,16,64}-node fabric-axis column
// through run_shard — the wall time of one scale-out sweep row per config,
// including the shared 1-node baselines and per-fabric partition cache.

const sim::Workload& gnn_workload() {
  static const sim::Workload wl = sim::WorkloadRegistry::global().resolve("gnn:cora");
  return wl;
}

void BM_MultinodeGnn(benchmark::State& state) {
  auto arch = bench::table5_config(1e12, 4ull * 1024 * 1024);
  arch.nodes = state.range(0);
  arch.topology = noc::resolve_topology("torus", arch.nodes).to_string();
  const auto& wl = gnn_workload();
  const sim::Simulator simulator(arch, wl.matrix.get());
  const sim::Configuration& config = sim::ConfigRegistry::global().at("Cello");
  Bytes noc_bytes = 0;
  for (auto _ : state) {
    const sim::RunMetrics m = simulator.run(*wl.dag, config);
    noc_bytes = m.noc_bytes;
    benchmark::DoNotOptimize(noc_bytes);
  }
  state.counters["noc_bytes"] = benchmark::Counter(static_cast<double>(noc_bytes));
}

void BM_MultinodeCgScaling(benchmark::State& state) {
  const auto arch = bench::table5_config(1e12, 4ull * 1024 * 1024);
  const std::vector<std::string> fabrics = {"1", "mesh:2x2", "mesh:4x4", "mesh:8x8"};
  const sim::SweepGrid grid =
      sim::make_grid({"cg:iters=20,n=16"}, {"Flexagon", "Cello"}, arch, fabrics);
  const sim::SweepRunner runner(/*threads=*/1);
  for (auto _ : state) {
    const auto cells = runner.run_shard(grid, sim::plan_shard(grid, 1, 1));
    benchmark::DoNotOptimize(cells.back().metrics.noc_bytes);
  }
}

}  // namespace

// SRAM capacity in MiB — the Fig. 16(b) sweep points.
BENCHMARK(BM_CgFlexLru)->Arg(1)->Arg(4)->Arg(16)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CgFlexBrrip)->Arg(1)->Arg(4)->Arg(16)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ResnetFlexLru)->Arg(1)->Arg(4)->Arg(16)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ResnetFlexBrrip)->Arg(1)->Arg(4)->Arg(16)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CgCello)->Arg(4)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TraceOverhead)->Arg(4)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SweepCgAnalyticShared)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SweepCgAnalyticRebuild)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SweepSharded)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_DagBuild)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ReuseIndexShared)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LlmDecodeFlexKv)->Arg(4)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LlmDecodeFlexLru)->Arg(4)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LlmDecodeCello)->Arg(4)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_LlmDecodeSweepShared)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ReplaySweepTable4)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ReplayCapture)->Unit(benchmark::kMillisecond);
// Node count on the torus fabric — the scale-out single-cell row.
BENCHMARK(BM_MultinodeGnn)->Arg(16)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MultinodeCgScaling)->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
