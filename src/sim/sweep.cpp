#include "sim/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <thread>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "noc/topology.hpp"
#include "score/schedule.hpp"
#include "sim/access_stream.hpp"
#include "sim/checkpoint.hpp"
#include "sim/partition.hpp"
#include "sim/policies/buffer_policy.hpp"
#include "sim/policies/schedule_policy.hpp"
#include "sim/registry.hpp"
#include "sim/shard.hpp"
#include "sim/simulator.hpp"

namespace cello::sim {

namespace {

/// Borrowed view of one grid row; run() and run_shard() both funnel into
/// this (run_shard leaves the rows its plan never touches unresolved).
struct WorkloadView {
  const std::string* name;
  const ir::TensorDag* dag;
  const sparse::CsrMatrix* matrix;  ///< may be null
};

/// Worker-pool size for `total` jobs (parallel_for uses exactly this many).
u32 worker_count(u32 threads, size_t total) {
  u32 n = threads != 0 ? threads : std::thread::hardware_concurrency();
  return std::max<u32>(1, std::min<u32>(n, static_cast<u32>(total)));
}

/// Run body(0..total) over a pool of `threads` workers; `worker` identifies
/// the executing worker (0..worker_count-1), so callers can hand each one
/// private reusable state.  The first exception thrown by any job makes
/// every worker abandon the remaining jobs instead of burning through them;
/// it is rethrown once the workers stop.
void parallel_for(u32 threads, size_t total,
                  const std::function<void(size_t job, u32 worker)>& body) {
  if (total == 0) return;
  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mu;

  auto worker = [&](u32 me) {
    for (size_t job; (job = next.fetch_add(1)) < total;) {
      if (failed.load(std::memory_order_relaxed)) return;
      try {
        body(job, me);
      } catch (...) {
        failed.store(true, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };

  const u32 n = worker_count(threads, total);
  std::vector<std::thread> pool;
  pool.reserve(n - 1);
  for (u32 t = 0; t + 1 < n; ++t) pool.emplace_back(worker, t);
  worker(n - 1);  // the calling thread is the n-th worker
  for (auto& th : pool) th.join();

  if (first_error) std::rethrow_exception(first_error);
}

/// One grid row after the fabric axis is applied: a (workload, fabric) pair.
/// Multi-node rows run the workload's shard DAG (one node's slice) and fold
/// the NoC cost in afterwards; single-node rows are the workload unchanged.
struct RowView {
  const ir::TensorDag* dag = nullptr;   ///< effective DAG (shard for nodes > 1)
  const Partition* part = nullptr;      ///< non-null exactly when nodes > 1
  std::string error;                    ///< partition failure, reported per cell
};

/// `cells`, when non-null, restricts the run to those flattened row-major
/// cell ids (shard-scoped sweep): results come back in `cells` order and only
/// the schedules/address maps those cells touch are prebuilt.  Null runs the
/// whole grid in row-major order.  `fabrics`, when non-null, inserts the
/// fabric axis between workloads and configs (canonical TopologySpec strings;
/// requires `cells`).  `grid`/`plan` carry the shard identity a checkpoint
/// journal is keyed by; they are non-null exactly when the caller is
/// run_shard.
std::vector<SweepResult> run_grid(u32 threads, const std::vector<WorkloadView>& workloads,
                                  const std::vector<Configuration>& configs,
                                  const AcceleratorConfig& arch,
                                  const std::vector<std::string>* fabrics = nullptr,
                                  const std::vector<size_t>* cells = nullptr,
                                  const SweepOptions& opts = {},
                                  const SweepGrid* grid = nullptr,
                                  const ShardPlan* plan = nullptr) {
  static const std::vector<std::string> kSingleChip{"1"};
  const std::vector<std::string>& fabs =
      fabrics != nullptr && !fabrics->empty() ? *fabrics : kSingleChip;
  const bool fabric_axis = fabs.size() != 1 || fabs[0] != "1";
  CELLO_CHECK_MSG(fabrics == nullptr || cells != nullptr,
                  "a fabric axis requires a shard-scoped run");
  const size_t F = fabs.size();
  const size_t C = configs.size();
  const size_t grid_size = workloads.size() * F * C;
  const size_t total = cells != nullptr ? cells->size() : grid_size;
  std::vector<SweepResult> out(total);
  if (total == 0) return out;
  if (cells != nullptr)
    for (const size_t cell : *cells)
      CELLO_CHECK_MSG(cell < grid_size,
                      "shard cell " << cell << " outside the " << grid_size << "-cell grid");
  CELLO_CHECK_MSG((opts.trace_cell >= 0) == (opts.trace_sink != nullptr),
                  "SweepOptions::trace_cell and ::trace_sink travel together: both or neither");
  CELLO_CHECK_MSG(!opts.trace_sink_for || opts.trace_cell < 0,
                  "SweepOptions::trace_sink_for excludes trace_cell/trace_sink: one selector");
  CELLO_CHECK_MSG(opts.trace_cell < 0 || static_cast<size_t>(opts.trace_cell) < grid_size,
                  "trace cell " << opts.trace_cell << " outside the " << grid_size
                                << "-cell grid");

  // Parse each fabric once; nodes > 1 fabrics carry the routed topology the
  // fold prices collectives against.
  struct FabricInfo {
    i64 nodes = 1;
    std::optional<noc::Topology> topo;
  };
  std::vector<FabricInfo> finfo(F);
  for (size_t fi = 0; fi < F; ++fi) {
    const noc::TopologySpec spec = noc::TopologySpec::parse(fabs[fi]);
    finfo[fi].nodes = spec.nodes();
    if (finfo[fi].nodes > 1) finfo[fi].topo = noc::Topology::build(spec);
  }

  // ---- checkpoint journal ----
  // Cells recovered from an existing journal are marked done up front: they
  // skip simulation entirely (their hexfloat-exact journal payloads are
  // bit-identical to re-running them) and the prebuild below only builds what
  // the still-pending cells touch.
  CheckpointJournal journal;
  std::vector<char> done(total, 0);
  if (!opts.checkpoint.empty()) {
    CELLO_CHECK_MSG(grid != nullptr && plan != nullptr,
                    "checkpointing requires a shard-scoped run (SweepRunner::run_shard): the "
                    "journal is keyed by the grid fingerprint");
    CheckpointState state;
    journal = CheckpointJournal::open(opts.checkpoint, *grid, *plan, opts.resume, &state);
    std::map<size_t, size_t> job_of;  // flattened cell id -> index into `out`
    for (size_t j = 0; j < cells->size(); ++j) job_of.emplace((*cells)[j], j);
    for (auto& [cell, result] : state.completed) {
      const size_t job = job_of.at(cell);  // read_journal validated membership
      out[job] = std::move(result);
      done[job] = 1;
    }
  }

  // ---- shared immutable prebuild ----
  // One AddressMap per distinct DAG and one score::Schedule per (DAG,
  // schedule-options) pair present in the grid.  The cache key is
  // Simulator::schedule_options(config) — by construction exactly the
  // scheduling inputs make_schedule consumes — so configurations with equal
  // options (today: all pipelining policies share one slot, op-by-op the
  // other) replay against the same read-only copy, bit-identically to a
  // per-cell rebuild, and a future config knob that feeds scheduling splits
  // the slots automatically.
  const Simulator scheduler(arch);  // matrix context is irrelevant to scheduling
  std::vector<score::ScheduleOptions> opt_keys;  ///< distinct options, first-seen order
  std::vector<size_t> config_slot(configs.size());
  for (size_t ci = 0; ci < configs.size(); ++ci) {
    const score::ScheduleOptions opts = scheduler.schedule_options(configs[ci]);
    const auto it = std::find(opt_keys.begin(), opt_keys.end(), opts);
    config_slot[ci] = static_cast<size_t>(it - opt_keys.begin());
    if (it == opt_keys.end()) opt_keys.push_back(opts);
  }

  // Router tables key on everything RouterTables::build consumes beyond the
  // DAG: the schedule slot plus the policy / hold-flag / effective-arch
  // triple.  Configurations sharing a schedule slot (FLAT vs Cello) can still
  // need distinct tables, so this is a finer partition than config_slot.
  struct RouterKey {
    size_t sched_slot;
    SchedulePolicy policy;
    bool allow_delayed_hold;
    AcceleratorConfig arch;
    bool operator==(const RouterKey&) const = default;
  };
  std::vector<RouterKey> router_keys;  ///< distinct keys, first-seen order
  std::vector<size_t> config_rslot(configs.size());
  for (size_t ci = 0; ci < configs.size(); ++ci) {
    const RouterKey key{config_slot[ci], configs[ci].schedule, configs[ci].allow_delayed_hold,
                        scheduler.effective_arch(configs[ci])};
    const auto it = std::find(router_keys.begin(), router_keys.end(), key);
    config_rslot[ci] = static_cast<size_t>(it - router_keys.begin());
    if (it == router_keys.end()) router_keys.push_back(key);
  }

  // ---- fabric rows ----
  // Partition each workload once per distinct (DAG, node count): two fabrics
  // with equal node counts (mesh:2x2 and torus:2x2) share one shard DAG, and
  // a partition that cannot be built (more nodes than the shard rank has
  // extent) quarantines its cells instead of killing the shard.  Serial and
  // in row order, so shard DAG construction is deterministic.
  std::deque<Partition> partitions;  // deque: stable addresses as it grows
  std::map<std::pair<const ir::TensorDag*, i64>, const Partition*> part_cache;
  std::vector<char> row_used(workloads.size() * F, cells == nullptr ? 1 : 0);
  if (cells != nullptr)
    for (size_t j = 0; j < cells->size(); ++j)
      if (!done[j]) row_used[(*cells)[j] / C] = 1;
  std::vector<RowView> rows(workloads.size() * F);
  for (size_t wi = 0; wi < workloads.size(); ++wi) {
    for (size_t fi = 0; fi < F; ++fi) {
      const size_t rf = wi * F + fi;
      RowView& row = rows[rf];
      row.dag = workloads[wi].dag;
      if (!row_used[rf] || row.dag == nullptr || finfo[fi].nodes <= 1) continue;
      const auto key = std::make_pair(row.dag, finfo[fi].nodes);
      auto it = part_cache.find(key);
      if (it == part_cache.end()) {
        try {
          partitions.push_back(build_partition(*row.dag, finfo[fi].nodes));
          it = part_cache.emplace(key, &partitions.back()).first;
        } catch (const std::exception& e) {
          it = part_cache.emplace(key, nullptr).first;
          row.error = e.what();
        }
      }
      row.part = it->second;
      if (row.part != nullptr) {
        row.dag = &row.part->shard;
      } else if (row.error.empty()) {
        // A later row hitting an already-failed cache entry re-derives the
        // message so its cells still explain themselves.
        try {
          build_partition(*workloads[wi].dag, finfo[fi].nodes);
        } catch (const std::exception& e) {
          row.error = e.what();
        }
        row.dag = nullptr;
      } else {
        row.dag = nullptr;
      }
    }
  }

  // Prebuilds key on DAG identity, not grid row: listing the same resolved
  // workload twice shares its AddressMap and schedules too.  Multi-node rows
  // register their shard DAG; the original full DAG is registered separately
  // below for the parallel-efficiency baseline those rows also need.
  std::map<const ir::TensorDag*, size_t> unique_dag;
  std::vector<size_t> dag_slot(rows.size());
  for (size_t rf = 0; rf < rows.size(); ++rf)
    dag_slot[rf] = unique_dag.emplace(rows[rf].dag, unique_dag.size()).first->second;

  // The 1-node baseline runs once per (workload, config) any pending
  // multi-node cell touches.
  std::set<std::pair<size_t, size_t>> baseline_keys;
  std::vector<size_t> wl_dag_slot(workloads.size(), SIZE_MAX);
  for (size_t j = 0; j < total; ++j) {
    if (done[j]) continue;
    const size_t cell = cells != nullptr ? (*cells)[j] : j;
    const size_t rf = cell / C;
    if (rows[rf].part == nullptr) continue;
    const size_t wi = rf / F;
    baseline_keys.emplace(wi, cell % C);
    if (wl_dag_slot[wi] == SIZE_MAX)
      wl_dag_slot[wi] = unique_dag.emplace(workloads[wi].dag, unique_dag.size()).first->second;
  }

  std::vector<std::optional<AddressMap>> maps(unique_dag.size());
  std::vector<std::vector<std::optional<score::Schedule>>> scheds(
      unique_dag.size(), std::vector<std::optional<score::Schedule>>(opt_keys.size()));
  // The immutable reuse index rides next to its schedule: it derives from
  // (schedule, address map), so it shares their (DAG, options) cache slots
  // and the same read-only-across-the-pool lifetime.
  std::vector<std::vector<std::optional<score::ReuseIndex>>> reuse(
      unique_dag.size(), std::vector<std::optional<score::ReuseIndex>>(opt_keys.size()));
  // Shared immutable router tables, one per (DAG, router key).
  std::vector<std::vector<std::optional<RouterTables>>> rtables(
      unique_dag.size(), std::vector<std::optional<RouterTables>>(router_keys.size()));

  // A cell-restricted (shard) run prebuilds only what its *pending* cells
  // touch — checkpoint-recovered cells need no schedule — while a full run
  // touches every (DAG, options) pair by construction.
  const char all_needed = cells == nullptr ? 1 : 0;
  std::vector<char> map_needed(unique_dag.size(), all_needed);
  std::vector<std::vector<char>> sched_needed(unique_dag.size(),
                                              std::vector<char>(opt_keys.size(), all_needed));
  std::vector<std::vector<char>> rtable_needed(
      unique_dag.size(), std::vector<char>(router_keys.size(), all_needed));
  if (cells != nullptr) {
    for (size_t j = 0; j < cells->size(); ++j) {
      if (done[j]) continue;
      const size_t cell = (*cells)[j];
      const size_t rf = cell / C;
      if (rows[rf].dag == nullptr) continue;  // unresolved row or failed partition
      const size_t di = dag_slot[rf];
      const size_t ki = config_slot[cell % C];
      const size_t ri = config_rslot[cell % C];
      map_needed[di] = 1;
      sched_needed[di][ki] = 1;
      rtable_needed[di][ri] = 1;
      if (rows[rf].part != nullptr) {
        // Multi-node cells also replay the full DAG once for the baseline.
        const size_t bdi = wl_dag_slot[rf / F];
        map_needed[bdi] = 1;
        sched_needed[bdi][ki] = 1;
        rtable_needed[bdi][ri] = 1;
      }
    }
  }

  struct PrebuildJob {
    const ir::TensorDag* dag;
    size_t di;  ///< unique-DAG index
    i32 slot;   ///< index into scheds[di] / opt_keys, or -1 for the AddressMap
  };
  std::vector<PrebuildJob> jobs;
  jobs.reserve(unique_dag.size() * (1 + opt_keys.size()));
  for (const auto& [dag, di] : unique_dag) {
    if (map_needed[di]) jobs.push_back({dag, di, -1});
    for (size_t k = 0; k < opt_keys.size(); ++k)
      if (sched_needed[di][k]) jobs.push_back({dag, di, static_cast<i32>(k)});
  }

  parallel_for(threads, jobs.size(), [&](size_t j, u32 /*worker*/) {
    const PrebuildJob& job = jobs[j];
    if (job.slot < 0) {
      maps[job.di].emplace(AddressMap::build(*job.dag));
    } else {
      scheds[job.di][job.slot].emplace(score::build_schedule(*job.dag, opt_keys[job.slot]));
    }
  });

  // Second prebuild wave: reuse indexes and router tables both derive from a
  // built schedule (reuse also needs the address map), so they build once
  // those exist.  `router` distinguishes the two job kinds; `slot` indexes
  // opt_keys for reuse jobs and router_keys for table jobs.
  struct DerivedJob {
    const ir::TensorDag* dag;
    size_t di;
    size_t slot;
    bool router;
  };
  std::vector<DerivedJob> derived_jobs;
  derived_jobs.reserve(unique_dag.size() * (opt_keys.size() + router_keys.size()));
  for (const auto& [dag, di] : unique_dag) {
    for (size_t k = 0; k < opt_keys.size(); ++k)
      if (sched_needed[di][k]) derived_jobs.push_back({dag, di, k, false});
    for (size_t r = 0; r < router_keys.size(); ++r)
      if (rtable_needed[di][r]) derived_jobs.push_back({dag, di, r, true});
  }
  parallel_for(threads, derived_jobs.size(), [&](size_t j, u32 /*worker*/) {
    const DerivedJob& job = derived_jobs[j];
    if (job.router) {
      const RouterKey& key = router_keys[job.slot];
      rtables[job.di][job.slot].emplace(RouterTables::build(
          *job.dag, *scheds[job.di][key.sched_slot], key.policy, key.allow_delayed_hold,
          key.arch));
    } else {
      reuse[job.di][job.slot].emplace(
          score::ReuseIndex::build(*job.dag, *scheds[job.di][job.slot],
                                   maps[job.di]->base_of, maps[job.di]->entries.size()));
    }
  });

  // ---- access streams (third prebuild wave) ----
  // One captured AccessStream per (DAG, router key) any pending trace-driven
  // cell or 1-node baseline touches.  Capture is config-independent — only
  // the schedule shape and routing decisions enter the stream — so
  // configurations sharing a router slot (e.g. the Table IV cache presets on
  // the op-by-op schedule) replay one stream: address generation is paid once
  // per column instead of once per cell.
  std::vector<char> config_traced(C, 0);
  for (size_t ci = 0; ci < C; ++ci)
    config_traced[ci] = configs[ci].buffers &&
                        configs[ci].buffers(router_keys[config_rslot[ci]].arch)->trace_driven();
  std::vector<std::vector<std::optional<AccessStream>>> streams(
      unique_dag.size(), std::vector<std::optional<AccessStream>>(router_keys.size()));
  std::vector<std::vector<char>> stream_needed(unique_dag.size(),
                                               std::vector<char>(router_keys.size(), 0));
  std::vector<const sparse::CsrMatrix*> dag_matrix(unique_dag.size(), nullptr);
  for (size_t j = 0; j < total; ++j) {
    if (done[j]) continue;
    const size_t cell = cells != nullptr ? (*cells)[j] : j;
    const size_t rf = cell / C;
    const size_t ci = cell % C;
    if (!config_traced[ci] || rows[rf].dag == nullptr) continue;
    const size_t di = dag_slot[rf];
    stream_needed[di][config_rslot[ci]] = 1;
    dag_matrix[di] = workloads[rf / F].matrix;
    if (rows[rf].part != nullptr) {
      const size_t bdi = wl_dag_slot[rf / F];
      stream_needed[bdi][config_rslot[ci]] = 1;
      dag_matrix[bdi] = workloads[rf / F].matrix;
    }
  }
  struct StreamJob {
    const ir::TensorDag* dag;
    size_t di;
    size_t ri;
  };
  std::vector<StreamJob> stream_jobs;
  for (const auto& [dag, di] : unique_dag)
    for (size_t r = 0; r < router_keys.size(); ++r)
      if (stream_needed[di][r]) stream_jobs.push_back({dag, di, r});
  parallel_for(threads, stream_jobs.size(), [&](size_t j, u32 /*worker*/) {
    const StreamJob& job = stream_jobs[j];
    const RouterKey& key = router_keys[job.ri];
    const score::Schedule& sched = *scheds[job.di][key.sched_slot];
    const Router router(*job.dag, sched, key.policy, *rtables[job.di][job.ri]);
    streams[job.di][job.ri].emplace(AccessStream::capture(
        *job.dag, sched, *maps[job.di], dag_matrix[job.di], key.arch, router));
  });

  // ---- the grid ----
  // Each pool worker owns one RunScratch: per-cell mutable state (reuse
  // cursors, attribution scratch, pooled buffer policies) is reset, not
  // reallocated, between the cells that worker executes.
  std::vector<RunScratch> scratches(worker_count(threads, total));

  // ---- 1-node baselines ----
  // Parallel-efficiency needs "the whole workload on one chip" per (workload,
  // config); run those once up front against the same shared artifacts, so a
  // {1,4,16,64}-node column reuses one baseline instead of re-simulating it
  // per fabric.  A baseline failure quarantines only the cells that fold it.
  struct Baseline {
    double seconds = 0;
    std::string error;
  };
  std::map<std::pair<size_t, size_t>, Baseline> baselines;
  std::vector<std::pair<size_t, size_t>> bkeys(baseline_keys.begin(), baseline_keys.end());
  for (const auto& key : bkeys) baselines.emplace(key, Baseline{});
  parallel_for(threads, bkeys.size(), [&](size_t j, u32 worker) {
    const auto [wi, ci] = bkeys[j];
    const size_t di = wl_dag_slot[wi];
    const size_t ki = config_slot[ci];
    Baseline& base = baselines.find(bkeys[j])->second;
    try {
      const Simulator simulator(arch, workloads[wi].matrix);
      RunArtifacts art;
      art.schedule = &*scheds[di][ki];
      art.address_map = &*maps[di];
      art.reuse_index = &*reuse[di][ki];
      art.router_tables = &*rtables[di][config_rslot[ci]];
      art.scratch = &scratches[worker];
      const auto& stream = streams[di][config_rslot[ci]];
      if (stream.has_value()) art.access_stream = &*stream;
      base.seconds = simulator.run(*workloads[wi].dag, configs[ci], art).seconds;
    } catch (const std::exception& e) {
      base.error = e.what();
    }
  });

  auto run_cell = [&](size_t job, u32 worker) {
    if (done[job]) return;  // recovered from the checkpoint journal
    const size_t cell = cells != nullptr ? (*cells)[job] : job;
    const size_t rf = cell / C;
    const size_t ci = cell % C;
    const size_t fi = rf % F;
    const size_t wi = rf / F;
    const RowView& row = rows[rf];
    const WorkloadView& wl = workloads[wi];
    SweepResult result{*wl.name, configs[ci].name, {}, {}, {}};
    if (fabric_axis) result.fabric = fabs[fi];
    trace::TraceSink* sink = nullptr;
    if (opts.trace_sink_for) {
      sink = opts.trace_sink_for(cell);
    } else if (opts.trace_sink != nullptr && opts.trace_cell == static_cast<i64>(cell)) {
      sink = opts.trace_sink;
    }
    const bool traced = sink != nullptr;
    // Deterministic bounded retries: attempts run back-to-back on the same
    // worker, so the final outcome is independent of thread scheduling.
    std::string error;
    for (u32 attempt = 0; attempt <= opts.retries; ++attempt) {
      error.clear();
      try {
        failpoint::maybe_throw("sweep.cell", std::to_string(cell));
        if (!row.error.empty()) throw Error(row.error);
        const Simulator simulator(arch, wl.matrix);
        RunArtifacts art;
        art.schedule = &*scheds[dag_slot[rf]][config_slot[ci]];
        art.address_map = &*maps[dag_slot[rf]];
        art.reuse_index = &*reuse[dag_slot[rf]][config_slot[ci]];
        art.router_tables = &*rtables[dag_slot[rf]][config_rslot[ci]];
        art.scratch = &scratches[worker];
        const auto& stream = streams[dag_slot[rf]][config_rslot[ci]];
        if (stream.has_value()) art.access_stream = &*stream;
        if (traced) art.trace = sink;
        result.metrics = simulator.run(*row.dag, configs[ci], art);
        if (row.part != nullptr) {
          const Baseline& base = baselines.at({wi, ci});
          if (!base.error.empty())
            throw Error("1-node baseline failed: " + base.error);
          // Captured before the fold so a traced cell places its collective
          // span where the direct multi-node run would.
          const double per_node_seconds = result.metrics.seconds;
          result.metrics = fold_multinode(result.metrics, base.seconds, *row.part,
                                          *finfo[fi].topo, arch);
          if (traced) trace_collectives(*sink, result.metrics, per_node_seconds);
        }
        break;
      } catch (const std::exception& e) {
        error = e.what();
      }
    }
    if (!error.empty()) {
      // Every cell-level throw carries its full grid coordinates: a failure
      // in a million-cell sweep names exactly what died and under what.
      std::string context = "sweep cell " + std::to_string(cell) + " (workload '" + *wl.name +
                            "'";
      if (fabric_axis) context += ", fabric '" + fabs[fi] + "'";
      context += ", config '" + configs[ci].name + "') failed";
      if (opts.retries > 0)
        context += " after " + std::to_string(opts.retries + 1) + " attempts";
      context += ": " + error;
      if (!opts.keep_going) throw Error(context);
      result.metrics = RunMetrics{};
      result.error = std::move(context);
    }
    const bool completed = result.ok();
    out[job] = std::move(result);
    // Only successes are journaled: a quarantined failure stays pending, so a
    // later resume (possibly with the fault fixed) re-runs it.
    if (journal.active() && completed) journal.append(cell, out[job]);
  };

  // ---- worker-affine tiling ----
  // Jobs are claimed in configuration-major run-length chunks instead of one
  // by one: a worker executing a chunk runs the same configuration repeatedly,
  // so its scratch's pooled buffer policy is reset — not rebuilt — between
  // consecutive cells.  Each configuration run splits into at most
  // worker_count pieces to keep the pool load-balanced.  Results are written
  // by job index and each cell's simulation is untouched, so output order and
  // bits match the one-job-at-a-time claiming at any thread count.
  const u32 nworkers = worker_count(threads, total);
  std::vector<size_t> order(total);
  for (size_t j = 0; j < total; ++j) order[j] = j;
  auto config_of = [&](size_t job) { return (cells != nullptr ? (*cells)[job] : job) % C; };
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return config_of(a) < config_of(b); });
  struct Chunk {
    size_t begin, end;  ///< half-open range into `order`
  };
  std::vector<Chunk> chunks;
  for (size_t s = 0; s < total;) {
    size_t e = s;
    while (e < total && config_of(order[e]) == config_of(order[s])) ++e;
    const size_t pieces = std::min<size_t>(nworkers, e - s);
    const size_t step = (e - s + pieces - 1) / pieces;
    for (size_t p = s; p < e; p += step) chunks.push_back({p, std::min(p + step, e)});
    s = e;
  }
  parallel_for(threads, chunks.size(), [&](size_t cj, u32 worker) {
    for (size_t k = chunks[cj].begin; k < chunks[cj].end; ++k) run_cell(order[k], worker);
  });
  return out;
}

std::vector<Configuration> named_configs(const std::vector<std::string>& names) {
  std::vector<Configuration> configs;
  configs.reserve(names.size());
  for (const auto& name : names) configs.push_back(ConfigRegistry::global().at(name));
  return configs;
}

}  // namespace

std::vector<SweepResult> SweepRunner::run(const std::vector<Workload>& workloads,
                                          const std::vector<Configuration>& configs,
                                          const AcceleratorConfig& arch,
                                          const SweepOptions& options) const {
  CELLO_CHECK_MSG(options.checkpoint.empty(),
                  "checkpointing requires a shard-scoped run (SweepRunner::run_shard): the "
                  "journal is keyed by the grid fingerprint");
  std::vector<WorkloadView> views;
  views.reserve(workloads.size());
  for (const auto& w : workloads) {
    CELLO_CHECK_MSG(w.dag != nullptr, "sweep workload '" << w.name << "' has no DAG");
    views.push_back({&w.name, w.dag.get(), w.matrix.get()});
  }
  return run_grid(threads_, views, configs, arch, nullptr, nullptr, options);
}

std::vector<SweepResult> SweepRunner::run_shard(const SweepGrid& grid, const ShardPlan& plan,
                                                const SweepOptions& options) const {
  // Resolve (build the DAG of, load the matrix of) only the workloads the
  // shard's cells actually touch: a shard of a dataset-heavy grid must not
  // pay — or even require access to — the other shards' datasets.  Untouched
  // rows keep null views; run_grid never dereferences a row no cell selects,
  // and their names come from the grid's canonical spec strings (identical
  // to the resolved names by construction).
  const size_t row_cells = grid.fabrics.size() * grid.configs.size();
  std::vector<char> needed(grid.workloads.size(), 0);
  for (const size_t cell : plan.cells)
    if (row_cells != 0 && cell / row_cells < grid.workloads.size())
      needed[cell / row_cells] = 1;
  std::vector<Workload> workloads(grid.workloads.size());
  for (size_t wi = 0; wi < grid.workloads.size(); ++wi)
    if (needed[wi]) workloads[wi] = WorkloadRegistry::global().resolve(grid.workloads[wi]);
  const std::vector<Configuration> configs = named_configs(grid.configs);
  std::vector<WorkloadView> views;
  views.reserve(workloads.size());
  for (size_t wi = 0; wi < grid.workloads.size(); ++wi)
    views.push_back(
        {&grid.workloads[wi], workloads[wi].dag.get(), workloads[wi].matrix.get()});
  return run_grid(threads_, views, configs, grid.arch, &grid.fabrics, &plan.cells, options,
                  &grid, &plan);
}

}  // namespace cello::sim
