// cello_perfbench: host time of the Cello simulator, end to end and layer by
// layer.  Built and driven by perfbench/run.py:
//
//   cello_perfbench --workload fig12|mixed|fabric --seed N --seconds S --trace 0|1
//
// Workloads (every input derives from --seed; the cost of a pass does not):
//   fig12   the fv1 panel of Fig. 12 run the way its figure driver runs it:
//           CG on fv1 x N in {1, 16} x {250 GB/s, 1 TB/s} x the seven Table IV
//           presets, every cell a fresh one-shot Simulator::run on the
//           dataset's own matrix.  The seed permutes the order the cells run
//           in.  The figure's larger datasets (shallow_water1, G2_circuit) are
//           left out: their cache cells outgrow the core's L2, and on a shared
//           host they slowed by up to 2x whenever neighbours loaded the L3,
//           beyond any usable regression bound.
//   mixed   one sweep over all eight workload kinds, each on its documented
//           default dataset and parameters (llm at the README's KV-spill
//           size), x every registered configuration, as `cello_cli sweep`
//           runs it (make_grid -> run_shard -> shard JSON).
//   fabric  the sharded-sweep CI grid: cg (fv1-shaped, shape-only), sddmm on
//           cora and llm decode x fabrics {1, mesh:2x2} x every registered
//           configuration, run as three strided shards whose JSON is parsed
//           back and merged.
//           In both sweeps the seed permutes the workload rows.
//
// --trace 0 repeats passes over the grid for --seconds (at least three) and
// reports grid_ms, the host time of one pass with each of its parts at its
// fastest (see run()), setup_s, the fastest time to build the inputs, and the
// peak RSS of set-up and the timed passes.  --trace 1 executes the same grid
// as explicit calls into each layer (matrix instantiation, DAG build,
// schedule, address map, reuse index, router tables, stream capture, replay,
// cache and analytic runs, multi-node partition and fold, serialization),
// timing each call from here, and reports each layer's per-pass total,
// fastest over the passes.  Either way, every pass's serialized results must
// equal, byte for byte, a reference produced afterwards by the other path
// before the run counts as correct.
//
// The last stdout line is one JSON object: correct, attempted and failed
// (grid cells simulated in timed passes, and how many of them errored or
// disagreed with the reference), and metrics.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "cello/cello.hpp"
#include "noc/topology.hpp"
#include "score/reuse_index.hpp"
#include "score/schedule.hpp"
#include "sim/access_stream.hpp"
#include "sim/policies/buffer_policy.hpp"
#include "sim/policies/schedule_policy.hpp"
#include "sparse/datasets.hpp"

namespace {

using namespace cello;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Worker threads of the sweep workloads.  One: with more, which worker draws
// the few heavy cells (multi-node cache runs, 1-node baselines) varies from
// pass to pass, and the pass time with it; the figures also stay independent
// of the host's core count.
constexpr u32 kSweepThreads = 1;
// Set-up is repeated at least kSetupReps times and for at least
// kSetupSeconds (capped at kSetupMaxReps) per run; setup_s is the fastest.
constexpr int kSetupReps = 5;
constexpr double kSetupSeconds = 2.0;
constexpr int kSetupMaxReps = 2000;
// A run times at least this many passes, however long --seconds is.
constexpr int kMinPasses = 3;

// ---- per-layer clock --------------------------------------------------------

enum Layer : size_t {
  kInstantiate,
  kDagBuild,
  kSchedule,
  kAddressMap,
  kReuseIndex,
  kRouterTables,
  kStreamCapture,
  kReplay,        ///< runs of trace-driven (cache) configs handed a captured stream
  kCacheOneShot,  ///< runs of trace-driven configs without one (one-shot path)
  kAnalytic,      ///< runs of analytic buffer configs
  kPartition,
  kNocFold,       ///< topology build + fold_multinode
  kSerialize,     ///< result JSON out, parse back, shard merge
  kLayerCount,
};

constexpr std::array<const char*, kLayerCount> kLayerNames = {
    "instantiate_ms",    "dag_build_ms",      "schedule_ms",  "address_map_ms",
    "reuse_index_ms",    "router_tables_ms",  "stream_capture_ms", "replay_ms",
    "cache_oneshot_ms",  "analytic_ms",       "partition_ms", "noc_fold_ms",
    "serialize_ms"};

/// Host time per layer over one pass, plus the counts the layers did.
struct LayerClock {
  std::array<double, kLayerCount> ms{};
  u64 stream_spans = 0;     ///< materialized spans of every captured stream
  u64 scheduled_steps = 0;  ///< schedule steps simulated, over every run

  template <class F>
  decltype(auto) time(Layer layer, F&& f) {
    const auto t0 = Clock::now();
    struct Stop {
      double& acc;
      Clock::time_point t0;
      ~Stop() { acc += 1e3 * seconds_since(t0); }
    } stop{ms[layer], t0};
    return f();
  }
};

// ---- inputs -----------------------------------------------------------------

std::vector<sim::Configuration> resolve_configs(const std::vector<std::string>& names) {
  std::vector<sim::Configuration> out;
  for (const auto& n : names) out.push_back(sim::ConfigRegistry::global().at(n));
  return out;
}

// ---- layered execution ------------------------------------------------------

/// Runs grid cells as explicit per-layer calls.  `shared` mirrors a sweep:
/// one address map per DAG, one schedule + reuse index per (DAG, schedule
/// options), one router-table set and one captured stream per (DAG, routing
/// inputs), one partition per (DAG, nodes) and one 1-node baseline per
/// (workload, config), all reused across the cells handed to one executor.
/// Unshared mirrors a one-shot Simulator::run per cell: everything is built
/// fresh and no stream is supplied.
class LayeredExecutor {
 public:
  LayeredExecutor(const std::vector<sim::Workload>& workloads,
                  const std::vector<std::string>& fabrics,
                  const std::vector<sim::Configuration>& configs,
                  const sim::AcceleratorConfig& arch, bool shared, LayerClock& clock)
      : workloads_(workloads), fabrics_(fabrics), configs_(configs), arch_(arch),
        shared_(shared), clock_(clock), scheduler_(arch) {
    for (const auto& config : configs_) {
      const score::ScheduleOptions opts = scheduler_.schedule_options(config);
      auto it = std::find(opt_keys_.begin(), opt_keys_.end(), opts);
      config_slot_.push_back(static_cast<size_t>(it - opt_keys_.begin()));
      if (it == opt_keys_.end()) opt_keys_.push_back(opts);
      const RouterKey key{config_slot_.back(), config.schedule, config.allow_delayed_hold,
                          scheduler_.effective_arch(config)};
      auto rt = std::find(router_keys_.begin(), router_keys_.end(), key);
      config_rslot_.push_back(static_cast<size_t>(rt - router_keys_.begin()));
      if (rt == router_keys_.end()) router_keys_.push_back(key);
      cache_.push_back(config.buffers(key.arch)->trace_driven());
    }
  }

  /// Simulate one flattened row-major (workload, fabric, config) cell.
  sim::SweepResult run_cell(size_t cell) {
    const size_t C = configs_.size();
    const size_t F = fabrics_.size();
    const size_t ci = cell % C;
    const size_t fi = (cell / C) % F;
    const size_t wi = cell / (C * F);
    const sim::Workload& wl = workloads_[wi];
    sim::SweepResult result{wl.name, configs_[ci].name, {}, {}, {}};
    if (F != 1 || fabrics_[0] != "1") result.fabric = fabrics_[fi];

    const i64 nodes = noc::TopologySpec::parse(fabrics_[fi]).nodes();
    if (nodes <= 1) {
      result.metrics = simulate(*wl.dag, wl.matrix.get(), ci, /*allow_stream=*/true);
      return result;
    }
    const sim::Partition& part = partition(*wl.dag, nodes);
    const sim::RunMetrics per_node =
        simulate(part.shard, wl.matrix.get(), ci, /*allow_stream=*/false);
    const double base_seconds = baseline(wi, ci);
    const noc::Topology& topo = topology(fi);
    result.metrics = clock_.time(kNocFold, [&] {
      return sim::fold_multinode(per_node, base_seconds, part, topo, arch_);
    });
    return result;
  }

 private:
  struct RouterKey {
    size_t sched_slot;
    sim::SchedulePolicy policy;
    bool allow_delayed_hold;
    sim::AcceleratorConfig arch;
    bool operator==(const RouterKey&) const = default;
  };
  struct DagArtifacts {
    std::optional<sim::AddressMap> map;
    std::map<size_t, score::Schedule> scheds;
    std::map<size_t, score::ReuseIndex> reuse;
    std::map<size_t, sim::RouterTables> tables;
    std::map<size_t, sim::AccessStream> streams;
  };

  sim::RunMetrics simulate(const ir::TensorDag& dag, const sparse::CsrMatrix* matrix,
                           size_t ci, bool allow_stream) {
    DagArtifacts fresh;
    DagArtifacts& a = shared_ ? artifacts_[&dag] : fresh;
    const size_t slot = config_slot_[ci];
    const size_t rslot = config_rslot_[ci];
    const sim::Configuration& config = configs_[ci];
    const RouterKey& key = router_keys_[rslot];

    if (!a.map)
      a.map.emplace(clock_.time(kAddressMap, [&] { return sim::AddressMap::build(dag); }));
    if (!a.scheds.count(slot))
      a.scheds.emplace(slot, clock_.time(kSchedule, [&] {
        return score::build_schedule(dag, opt_keys_[slot]);
      }));
    const score::Schedule& sched = a.scheds.at(slot);
    if (!a.reuse.count(slot))
      a.reuse.emplace(slot, clock_.time(kReuseIndex, [&] {
        return score::ReuseIndex::build(dag, sched, a.map->base_of, a.map->entries.size());
      }));
    if (!a.tables.count(rslot))
      a.tables.emplace(rslot, clock_.time(kRouterTables, [&] {
        return sim::RouterTables::build(dag, sched, key.policy, key.allow_delayed_hold, key.arch);
      }));

    sim::RunArtifacts art;
    art.schedule = &sched;
    art.address_map = &*a.map;
    art.reuse_index = &a.reuse.at(slot);
    art.router_tables = &a.tables.at(rslot);
    if (shared_) art.scratch = &scratch_;
    const bool stream = shared_ && allow_stream && cache_[ci];
    if (stream) {
      if (!a.streams.count(rslot)) {
        const sim::AccessStream& s =
            a.streams
                .emplace(rslot, clock_.time(kStreamCapture, [&] {
                  const sim::Router router(dag, sched, key.policy, a.tables.at(rslot));
                  return sim::AccessStream::capture(dag, sched, *a.map, matrix, key.arch, router);
                }))
                .first->second;
        clock_.stream_spans += s.spans();
      }
      art.access_stream = &a.streams.at(rslot);
    }
    const Layer layer = !cache_[ci] ? kAnalytic : stream ? kReplay : kCacheOneShot;
    const sim::Simulator simulator(arch_, matrix);
    sim::RunMetrics m = clock_.time(layer, [&] { return simulator.run(dag, config, art); });
    clock_.scheduled_steps += sched.steps.size();
    return m;
  }

  const sim::Partition& partition(const ir::TensorDag& dag, i64 nodes) {
    const auto key = std::make_pair(&dag, nodes);
    auto it = partitions_.find(key);
    if (it == partitions_.end())
      it = partitions_
               .emplace(key, clock_.time(kPartition,
                                         [&] { return sim::build_partition(dag, nodes); }))
               .first;
    return it->second;
  }

  double baseline(size_t wi, size_t ci) {
    const auto key = std::make_pair(wi, ci);
    auto it = baselines_.find(key);
    if (it == baselines_.end()) {
      const sim::Workload& wl = workloads_[wi];
      const double seconds =
          simulate(*wl.dag, wl.matrix.get(), ci, /*allow_stream=*/false).seconds;
      it = baselines_.emplace(key, seconds).first;
    }
    return it->second;
  }

  const noc::Topology& topology(size_t fi) {
    auto it = topologies_.find(fi);
    if (it == topologies_.end())
      it = topologies_
               .emplace(fi, clock_.time(kNocFold, [&] {
                 return noc::Topology::build(noc::TopologySpec::parse(fabrics_[fi]));
               }))
               .first;
    return it->second;
  }

  const std::vector<sim::Workload>& workloads_;
  const std::vector<std::string>& fabrics_;
  const std::vector<sim::Configuration>& configs_;
  const sim::AcceleratorConfig arch_;
  const bool shared_;
  LayerClock& clock_;
  const sim::Simulator scheduler_;
  std::vector<score::ScheduleOptions> opt_keys_;
  std::vector<RouterKey> router_keys_;
  std::vector<size_t> config_slot_, config_rslot_;
  std::vector<bool> cache_;
  std::map<const ir::TensorDag*, DagArtifacts> artifacts_;
  std::map<std::pair<const ir::TensorDag*, i64>, sim::Partition> partitions_;
  std::map<std::pair<size_t, size_t>, double> baselines_;
  std::map<size_t, noc::Topology> topologies_;
  sim::RunScratch scratch_;
};

// ---- workloads --------------------------------------------------------------

/// One pass's product: the serialized results (compared byte for byte
/// against the reference) and the rows they came from.
struct PassOutput {
  std::string text;
  std::vector<sim::SweepResult> results;
  /// Host time of each part of an end-to-end pass, in order.  A part is one
  /// separate call (a one-shot cell, a sweep shard, the serialization), and
  /// every pass consists of the same parts.
  std::vector<double> part_ms;
};

class Bench {
 public:
  virtual ~Bench() = default;
  /// Build the inputs the passes consume (timed as setup_s).
  virtual void setup() = 0;
  /// One end-to-end pass over the grid, through the user-facing entry points.
  virtual PassOutput pass() = 0;
  /// The same grid as explicit per-layer calls, timed into `clock`.
  virtual PassOutput layered(LayerClock& clock) = 0;
  /// Workload-specific sanity of the reference results.
  virtual bool plausible(const std::vector<sim::SweepResult>& /*rows*/) const { return true; }
};

// Fig. 12, fv1 panel: CG one-shot per cell.
class Fig12 final : public Bench {
 public:
  explicit Fig12(u64 seed)
      : seed_(seed), configs_(resolve_configs(sim::ConfigRegistry::table4_names())) {}

  void setup() override {
    inputs_.clear();  // never hold two copies of the inputs
    inputs_ = build_inputs(nullptr);
  }

  PassOutput pass() override {
    PassOutput out;
    for (const Input& in : inputs_) {
      const sim::AcceleratorConfig arch = arch_for(in.bw);
      for (const auto& config : configs_) {
        const sim::Simulator simulator(arch, in.matrix.get());
        const auto t0 = Clock::now();
        out.results.push_back({in.name, config.name, {}, simulator.run(*in.dag, config), {}});
        out.part_ms.push_back(1e3 * seconds_since(t0));
      }
    }
    const auto t0 = Clock::now();
    out.text = serialize(out.results);
    out.part_ms.push_back(1e3 * seconds_since(t0));
    return out;
  }

  PassOutput layered(LayerClock& clock) override {
    const std::vector<Input> inputs = build_inputs(&clock);
    PassOutput out;
    const std::vector<std::string> fabrics{"1"};
    for (const Input& in : inputs) {
      const std::vector<sim::Workload> row{{in.name, "cg", in.dag, in.matrix}};
      LayeredExecutor exec(row, fabrics, configs_, arch_for(in.bw), /*shared=*/false, clock);
      for (size_t ci = 0; ci < configs_.size(); ++ci) out.results.push_back(exec.run_cell(ci));
    }
    out.text = clock.time(kSerialize, [&] { return serialize(out.results); });
    return out;
  }

  /// Paper shape, per (dataset, N, bandwidth): Cello moves no more DRAM bytes
  /// than the Flexagon op-by-op baseline.
  bool plausible(const std::vector<sim::SweepResult>& rows) const override {
    for (size_t i = 0; i < rows.size(); i += configs_.size()) {
      Bytes flexagon = 0, cello = 0;
      for (size_t j = i; j < i + configs_.size(); ++j) {
        if (rows[j].config == "Flexagon") flexagon = rows[j].metrics.dram_bytes;
        if (rows[j].config == "Cello") cello = rows[j].metrics.dram_bytes;
      }
      if (cello == 0 || cello > flexagon) return false;
    }
    return true;
  }

 private:
  struct Input {
    std::string name;
    double bw;
    std::shared_ptr<const sparse::CsrMatrix> matrix;
    std::shared_ptr<const ir::TensorDag> dag;
  };

  static sim::AcceleratorConfig arch_for(double bw) {
    sim::AcceleratorConfig arch;  // Table V defaults
    arch.sram_bytes = 4ull * 1024 * 1024;
    arch.dram_bytes_per_sec = bw;
    return arch;
  }

  static std::string serialize(const std::vector<sim::SweepResult>& rows) {
    std::string text;
    for (const auto& r : rows) sim::result_to_json(text, r, 0);
    return text;
  }

  std::vector<Input> build_inputs(LayerClock* clock) const {
    std::vector<Input> out;
    const auto& spec = sparse::dataset_by_name("fv1");
    auto make_matrix = [&] {
      return std::make_shared<const sparse::CsrMatrix>(sparse::instantiate(spec));
    };
    const auto matrix = clock ? clock->time(kInstantiate, make_matrix) : make_matrix();
    for (i64 n : {1, 16}) {
      workloads::CgShape shape;
      shape.m = spec.rows;
      shape.n = n;
      shape.nnz = matrix->nnz();
      shape.iterations = 10;
      auto make_dag = [&] {
        return std::make_shared<const ir::TensorDag>(workloads::build_cg_dag(shape));
      };
      const auto dag = clock ? clock->time(kDagBuild, make_dag) : make_dag();
      for (double bw : {250e9, 1e12})
        out.push_back({spec.name + ",n=" + std::to_string(n) +
                           ",bw=" + std::to_string(static_cast<i64>(bw / 1e9)) + "GB/s",
                       bw, matrix, dag});
    }
    std::mt19937_64 rng(seed_);
    std::shuffle(out.begin(), out.end(), rng);
    return out;
  }

  u64 seed_;
  std::vector<sim::Configuration> configs_;
  std::vector<Input> inputs_;
};

/// One workload row of a sweep grid: a registry spec, backed by a Table VI
/// dataset preset or shape-only.
struct RowSpec {
  std::string kind;
  std::string dataset;  ///< empty: shape-only (m=/nnz= in params, or none)
  std::string params;

  std::string spec() const {
    const std::string source = dataset.empty() ? "" : "dataset=" + dataset;
    const std::string sep = source.empty() || params.empty() ? "" : ",";
    return source.empty() && params.empty() ? kind : kind + ":" + source + sep + params;
  }
  /// The matrix-free twin of a dataset row, shaped like `matrix`: resolving
  /// it times DAG construction alone.
  std::string shape(const sparse::CsrMatrix* matrix) const {
    if (dataset.empty()) return spec();
    std::string s = kind + ":m=" + std::to_string(matrix->rows()) +
                    ",nnz=" + std::to_string(matrix->nnz());
    const auto& preset = sparse::dataset_by_name(dataset);
    if (kind == "gnn" && preset.gnn_in_features > 0)
      s += ",in=" + std::to_string(preset.gnn_in_features) +
           ",out=" + std::to_string(preset.gnn_out_features);
    return s + (params.empty() ? "" : ",") + params;
  }
};

/// A sweep through SweepRunner::run_shard, as `cello_cli sweep` runs one:
/// the whole grid in one shard (mixed) or split into strided shards that
/// are serialized, parsed back and merged (fabric).  The seed permutes the
/// workload rows.
class Sweep final : public Bench {
 public:
  Sweep(std::vector<RowSpec> rows, std::vector<std::string> fabrics, u32 shards, u64 seed)
      : rows_(std::move(rows)), fabrics_(std::move(fabrics)), shards_(shards),
        config_names_(sim::ConfigRegistry::global().names()),
        configs_(resolve_configs(config_names_)) {
    std::mt19937_64 rng(seed);
    std::shuffle(rows_.begin(), rows_.end(), rng);
    for (const auto& r : rows_) specs_.push_back(r.spec());
  }

  void setup() override {
    auto& registry = sim::WorkloadRegistry::global();
    registry.clear_cache();
    workloads_.clear();
    const sim::SweepGrid grid = sim::make_grid(specs_, config_names_, arch_, fabrics_);
    for (const auto& spec : grid.workloads) workloads_.push_back(registry.resolve(spec));
  }

  PassOutput pass() override {
    const sim::SweepGrid grid = sim::make_grid(specs_, config_names_, arch_, fabrics_);
    const sim::SweepRunner runner(kSweepThreads);
    std::vector<sim::ShardResult> shards;
    std::vector<double> part_ms;
    for (u32 i = 1; i <= shards_; ++i) {
      const auto t0 = Clock::now();
      const sim::ShardPlan plan = sim::plan_shard(grid, i, shards_, sim::ShardMode::Strided);
      shards.push_back({grid, plan, runner.run_shard(grid, plan, sim::SweepOptions{})});
      part_ms.push_back(1e3 * seconds_since(t0));
    }
    const auto t0 = Clock::now();
    PassOutput out = serialize(grid, std::move(shards));
    part_ms.push_back(1e3 * seconds_since(t0));
    out.part_ms = std::move(part_ms);
    return out;
  }

  PassOutput layered(LayerClock& clock) override {
    for (const auto& r : rows_) {
      std::optional<sparse::CsrMatrix> matrix;
      if (!r.dataset.empty())
        matrix.emplace(clock.time(kInstantiate, [&] {
          return sparse::instantiate(sparse::dataset_by_name(r.dataset));
        }));
      const std::string shape = r.shape(matrix ? &*matrix : nullptr);
      clock.time(kDagBuild, [&] { return sim::WorkloadRegistry().resolve(shape); });
    }
    const sim::SweepGrid grid = sim::make_grid(specs_, config_names_, arch_, fabrics_);
    std::vector<sim::ShardResult> shards;
    for (u32 i = 1; i <= shards_; ++i) {
      // Artifacts are shared within a shard, never across shards, as in
      // run_shard.
      const sim::ShardPlan plan = sim::plan_shard(grid, i, shards_, sim::ShardMode::Strided);
      LayeredExecutor exec(workloads_, grid.fabrics, configs_, arch_, /*shared=*/true, clock);
      std::vector<sim::SweepResult> cells;
      for (const size_t cell : plan.cells) cells.push_back(exec.run_cell(cell));
      shards.push_back({grid, plan, std::move(cells)});
    }
    return clock.time(kSerialize, [&] { return serialize(grid, std::move(shards)); });
  }

 private:
  /// Write each shard's JSON file.  A split grid is then parsed back and
  /// merged into the full-grid file, as shards from separate machines are.
  static PassOutput serialize(const sim::SweepGrid& grid, std::vector<sim::ShardResult> shards) {
    PassOutput out;
    if (shards.size() == 1) {
      out.text = sim::shard_to_json(shards.front());
      out.results = std::move(shards.front().results);
      return out;
    }
    std::vector<sim::ShardResult> parsed;
    for (const auto& shard : shards)
      parsed.push_back(sim::shard_from_json(sim::shard_to_json(shard)));
    out.results = sim::merge_shards(std::move(parsed));
    out.text = sim::shard_to_json({grid, sim::plan_shard(grid, 1, 1), out.results});
    return out;
  }

  std::vector<RowSpec> rows_;
  std::vector<std::string> fabrics_;
  u32 shards_;
  std::vector<std::string> config_names_;
  std::vector<sim::Configuration> configs_;
  sim::AcceleratorConfig arch_;  // Table V defaults
  std::vector<std::string> specs_;
  std::vector<sim::Workload> workloads_;
};

/// Every workload kind on its documented default dataset and parameters
/// (README workload catalog); llm at the README / golden KV-spill size.
std::unique_ptr<Sweep> make_mixed(u64 seed) {
  std::vector<RowSpec> rows = {
      {"cg", "shallow_water1", ""},
      {"bicgstab", "nasa4704", ""},
      {"gnn", "cora", ""},
      {"power", "G2_circuit", ""},
      {"spmv", "shallow_water1", ""},
      {"sddmm", "cora", ""},
      {"resnet", "", ""},
      {"llm", "", "d_model=512,seq=2048,decode_steps=8,layers=2"},
  };
  return std::make_unique<Sweep>(std::move(rows), std::vector<std::string>{"1"}, 1, seed);
}

/// The grid of the sharded-sweep CI workflow (`--nodes 1,4 --topology mesh`,
/// three shards).
std::unique_ptr<Sweep> make_fabric(u64 seed) {
  std::vector<RowSpec> rows = {
      {"cg", "", "m=9604,nnz=85264,n=16,iters=3"},
      {"sddmm", "cora", "heads=2"},
      {"llm", "", "seq=512,decode_steps=4"},
  };
  std::vector<std::string> fabrics;
  for (const i64 nodes : {1, 4}) fabrics.push_back(noc::resolve_topology("mesh", nodes).to_string());
  return std::make_unique<Sweep>(std::move(rows), std::move(fabrics), 3, seed);
}

// ---- checks and report ------------------------------------------------------

/// Cells that errored or break a conservation law every run must obey.
size_t bad_rows(const std::vector<sim::SweepResult>& rows) {
  size_t bad = 0;
  for (const auto& r : rows) {
    const sim::RunMetrics& m = r.metrics;
    if (!r.ok() || !(m.seconds > 0) || m.total_macs <= 0 ||
        m.dram_bytes != m.dram_read_bytes + m.dram_write_bytes)
      ++bad;
  }
  return bad;
}

/// Rows whose serialized form differs from the reference's.
size_t mismatched_rows(const PassOutput& got, const PassOutput& ref) {
  if (got.text == ref.text) return 0;
  if (got.results.size() != ref.results.size()) return std::max<size_t>(1, ref.results.size());
  size_t bad = 0;
  for (size_t i = 0; i < ref.results.size(); ++i) {
    std::string a, b;
    sim::result_to_json(a, got.results[i], 0);
    sim::result_to_json(b, ref.results[i], 0);
    bad += a != b;
  }
  return std::max<size_t>(bad, 1);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, u64 attempted, u64 failed, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  std::printf("}}\n");
}

struct Args {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") a.workload = value;
    else if (key == "--seed") a.seed = std::stoull(value);
    else if (key == "--seconds") a.seconds = std::stod(value);
    else if (key == "--trace") a.trace = value == "1";
    else throw Error("unknown argument " + key);
  }
  if (argc % 2 != 1) throw Error("arguments come in --key value pairs");
  return a;
}

int run(const Args& args) {
  std::unique_ptr<Bench> bench;
  if (args.workload == "fig12") {
    bench = std::make_unique<Fig12>(args.seed);
  } else if (args.workload == "mixed") {
    bench = make_mixed(args.seed);
  } else if (args.workload == "fabric") {
    bench = make_fabric(args.seed);
  } else {
    throw Error("unknown workload '" + args.workload + "' (fig12 | mixed | fabric)");
  }

  // A shared host has busy spells that slow memory-bound code by tens of
  // percent for seconds to minutes; the fastest observation is the steadiest
  // estimate of a cost, so setup_s and grid_ms both report one.
  double setup_s = 0;
  const auto setup_start = Clock::now();
  for (int reps = 0; reps < kSetupReps || (seconds_since(setup_start) < kSetupSeconds &&
                                           reps < kSetupMaxReps);
       ++reps) {
    const auto t0 = Clock::now();
    bench->setup();
    const double s = seconds_since(t0);
    setup_s = reps == 0 ? s : std::min(setup_s, s);
  }

  PassOutput first;  ///< every timed pass must equal the first, byte for byte
  u64 attempted = 0, failed = 0;
  std::vector<double> pass_ms;
  std::vector<double> best_part_ms;  ///< per part, fastest over the passes
  std::vector<LayerClock> clocks;
  const auto start = Clock::now();
  while (static_cast<int>(pass_ms.size()) < kMinPasses || seconds_since(start) < args.seconds) {
    const auto t0 = Clock::now();
    PassOutput out;
    if (args.trace) {
      clocks.emplace_back();
      out = bench->layered(clocks.back());
    } else {
      out = bench->pass();
    }
    pass_ms.push_back(1e3 * seconds_since(t0));
    if (best_part_ms.empty()) best_part_ms = out.part_ms;
    for (size_t i = 0; i < out.part_ms.size(); ++i)
      best_part_ms[i] = std::min(best_part_ms[i], out.part_ms[i]);
    attempted += out.results.size();
    if (pass_ms.size() == 1) {
      failed += bad_rows(out.results);
      first = std::move(out);
    } else {
      failed += std::max(bad_rows(out.results), mismatched_rows(out, first));
    }
  }
  // Read before the reference is built, so the figure is the timed path's own.
  const double rss_mib = peak_rss_mib();

  // The reference comes from the path this run does not time.  Passes that
  // equal the first share its mismatches.
  LayerClock scratch_clock;
  const PassOutput ref = args.trace ? bench->pass() : bench->layered(scratch_clock);
  const size_t cells = ref.results.size();
  failed = std::min<u64>(attempted, failed + mismatched_rows(first, ref) * pass_ms.size());
  const bool correct = failed == 0 && bad_rows(ref.results) == 0 && bench->plausible(ref.results);

  // A pass is a fixed sequence of separate calls, so the grid time sums each
  // part's fastest run over the passes.
  const double grid_ms = std::accumulate(best_part_ms.begin(), best_part_ms.end(), 0.0);
  std::printf("workload=%s seed=%llu trace=%d cells=%zu passes=%zu pass_ms=[",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.trace,
              cells, pass_ms.size());
  for (size_t i = 0; i < pass_ms.size(); ++i) std::printf("%s%.1f", i ? " " : "", pass_ms[i]);
  std::printf("]\n");

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics.push_back({"grid_ms", grid_ms, "ms"});
    metrics.push_back({"setup_s", setup_s, "s"});
    metrics.push_back({"peak_rss_mib", rss_mib, "MiB"});
  } else {
    for (size_t l = 0; l < kLayerCount; ++l) {
      double fastest = clocks.front().ms[l];
      for (const auto& c : clocks) fastest = std::min(fastest, c.ms[l]);
      metrics.push_back({kLayerNames[l], fastest, "ms"});
    }
    metrics.push_back({"stream_spans", static_cast<double>(clocks.front().stream_spans), "count"});
    metrics.push_back(
        {"scheduled_steps", static_cast<double>(clocks.front().scheduled_steps), "count"});
  }
  print_result(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cello_perfbench: %s\n", e.what());
    return 1;
  }
}
