#include "sim/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <functional>
#include <map>
#include <mutex>
#include <thread>

#include "common/error.hpp"
#include "common/failpoint.hpp"
#include "noc/topology.hpp"
#include "sim/artifact_cache.hpp"
#include "sim/checkpoint.hpp"
#include "sim/registry.hpp"
#include "sim/shard.hpp"
#include "sim/simulator.hpp"

namespace cello::sim {

namespace {

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

std::vector<Configuration> named_configs(const std::vector<std::string>& names) {
  std::vector<Configuration> configs;
  configs.reserve(names.size());
  for (const auto& name : names) configs.push_back(ConfigRegistry::global().at(name));
  return configs;
}

}  // namespace

/// `plan`, when non-null, restricts the run to its flattened row-major cell
/// ids (shard-scoped sweep): results come back in plan order.  Null runs the
/// whole grid in row-major order.  Either way cell (wi * archs + ai) * configs
/// + ci is workload wi under archs[ai] and configuration ci.  `grid`/`plan`
/// also carry the shard identity a checkpoint journal is keyed by, and the
/// grid's fabric labels; both are non-null exactly when the caller is
/// run_shard.
std::vector<SweepResult> SweepRunner::run_grid(u32 threads, const std::vector<Workload>& workloads,
                                               const std::vector<Configuration>& configs,
                                               const std::vector<AcceleratorConfig>& archs,
                                               const SweepOptions& opts, const SweepGrid* grid,
                                               const ShardPlan* plan) {
  const std::vector<std::string>* fabrics =
      grid != nullptr && grid->has_fabric_axis() ? &grid->fabrics : nullptr;
  const std::vector<size_t>* cells = plan != nullptr ? &plan->cells : nullptr;
  const size_t A = archs.size();
  const size_t C = configs.size();
  const size_t grid_size = workloads.size() * A * C;
  const size_t total = cells != nullptr ? cells->size() : grid_size;
  std::vector<SweepResult> out(total);
  if (total == 0) return out;
  if (cells != nullptr)
    for (const size_t cell : *cells)
      CELLO_CHECK_MSG(cell < grid_size,
                      "shard cell " << cell << " outside the " << grid_size << "-cell grid");

  // ---- checkpoint journal ----
  // Cells recovered from an existing journal are marked done up front: they
  // skip simulation entirely (their hexfloat-exact journal payloads are
  // bit-identical to re-running them), so they never build an artifact.
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

  // ---- the grid ----
  // One ArtifactCache serves every cell: schedules, address maps, reuse
  // indexes, router tables, streams, partitions and 1-node baselines are each
  // built once, by the first pending cell that needs them, and shared
  // read-only afterwards.  Each pool worker owns one RunScratch, so the
  // per-cell scratch vectors and reuse cursor keep their capacity across the
  // cells it executes.
  ArtifactCache cache;
  std::vector<RunScratch> scratches(worker_count(threads, total));

  auto run_cell = [&](size_t job, u32 worker) {
    if (done[job]) return;  // recovered from the checkpoint journal
    const size_t cell = cells != nullptr ? (*cells)[job] : job;
    const size_t row = cell / C;
    const size_t ci = cell % C;
    const size_t ai = row % A;
    const Workload& wl = workloads[row / A];
    SweepResult result{wl.name, configs[ci].name, {}, {}, {}};
    if (fabrics != nullptr) result.fabric = (*fabrics)[ai];
    RunArtifacts art;
    art.scratch = &scratches[worker];
    if (opts.trace_sink_for) art.trace = opts.trace_sink_for(cell);
    // Deterministic bounded retries: attempts run back-to-back on the same
    // worker, so the final outcome is independent of thread scheduling.
    std::string error;
    for (u64 attempt = 0; attempt <= opts.retries; ++attempt) {
      error.clear();
      try {
        failpoint::maybe_throw("sweep.cell", std::to_string(cell));
        const Simulator simulator(archs[ai], wl.matrix.get());
        result.metrics = simulator.run(*wl.dag, configs[ci], art, cache);
        break;
      } catch (const std::exception& e) {
        error = e.what();
      }
    }
    if (!error.empty()) {
      // Every cell-level throw carries its full grid coordinates: a failure
      // in a million-cell sweep names exactly what died and under what.
      std::string context = "sweep cell " + std::to_string(cell) + " (workload '" + wl.name +
                            "'";
      if (fabrics != nullptr) context += ", fabric '" + (*fabrics)[ai] + "'";
      context += ", config '" + configs[ci].name + "') failed";
      if (opts.retries > 0)
        context += " after " + std::to_string(u64{opts.retries} + 1) + " attempts";
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

  parallel_for(threads, total, run_cell);
  return out;
}

std::vector<SweepResult> SweepRunner::run(const std::vector<Workload>& workloads,
                                          const std::vector<Configuration>& configs,
                                          const std::vector<AcceleratorConfig>& archs,
                                          const SweepOptions& options) const {
  CELLO_CHECK_MSG(!archs.empty(), "a sweep needs at least one arch");
  CELLO_CHECK_MSG(options.checkpoint.empty(),
                  "checkpointing requires a shard-scoped run (SweepRunner::run_shard): the "
                  "journal is keyed by the grid fingerprint");
  for (const auto& w : workloads)
    CELLO_CHECK_MSG(w.dag != nullptr, "sweep workload '" << w.name << "' has no DAG");
  return run_grid(threads_, workloads, configs, archs, options, nullptr, nullptr);
}

std::vector<SweepResult> SweepRunner::run_shard(const SweepGrid& grid, const ShardPlan& plan,
                                                const SweepOptions& options) const {
  // Resolve (build the DAG of, load the matrix of) only the workloads the
  // shard's cells actually touch: a shard of a dataset-heavy grid must not
  // pay — or even require access to — the other shards' datasets.  Untouched
  // rows keep a null DAG, which run_grid never dereferences since no cell
  // selects them.  Every row is named by the grid's canonical spec string
  // (identical to the resolved name by construction).
  const size_t row_cells = grid.fabrics.size() * grid.configs.size();
  std::vector<char> needed(grid.workloads.size(), 0);
  for (const size_t cell : plan.cells)
    if (row_cells != 0 && cell / row_cells < grid.workloads.size())
      needed[cell / row_cells] = 1;
  std::vector<Workload> workloads(grid.workloads.size());
  for (size_t wi = 0; wi < grid.workloads.size(); ++wi) {
    if (needed[wi]) workloads[wi] = WorkloadRegistry::global().resolve(grid.workloads[wi]);
    workloads[wi].name = grid.workloads[wi];
  }
  // Each fabric is a node count plus topology on the grid's arch, so a
  // multi-node cell is simply Simulator::run's multi-node path.  Without a
  // fabric axis the one arch is the grid's, as given.
  std::vector<AcceleratorConfig> archs(grid.fabrics.size(), grid.arch);
  if (grid.has_fabric_axis()) {
    for (size_t fi = 0; fi < archs.size(); ++fi) {
      archs[fi].nodes = noc::TopologySpec::parse(grid.fabrics[fi]).nodes();
      archs[fi].topology = grid.fabrics[fi];
    }
  }
  return run_grid(threads_, workloads, named_configs(grid.configs), archs, options, &grid,
                  &plan);
}

}  // namespace cello::sim
