// SweepRunner: fan a {workloads} x {archs} x {configurations} grid across a
// std::thread pool.  Results come back in deterministic row-major order
// (workload, then arch, then configuration) regardless of thread scheduling,
// and every cell is bit-identical to a serial Simulator::run.
//
// Two entry points.  run() takes resolved sim::Workload handles (from
// WorkloadRegistry::resolve, or a driver's own {name, kind, dag, matrix}),
// archs and Configurations; an architecture sweep (bandwidth, SRAM, node
// count, ...) is one run(), and a single arch is {arch}.  run_shard() is the
// name-driven path: a SweepGrid of registry spec strings and configuration
// names (make_grid, sim/shard.hpp), optionally with a fabric axis, run over
// one ShardPlan — plan_shard(grid, 1, 1) is the whole grid — and the only
// entry point that can checkpoint.  Its fabrics are its arch axis: the
// grid's arch with each fabric's node count and topology, the fabric string
// labeling the cell.
//
// Every cell is one Simulator::run against a single sim::ArtifactCache shared
// by the whole call: the first pending cell that needs an artifact builds it
// (see sim/artifact_cache.hpp for the keys), and every later cell shares it
// read-only.  So configurations differing only in their buffer policy reuse
// one schedule, the cache presets replay one stream, archs differing only in
// bandwidth or SRAM size share routing and streams, node counts fold against
// one 1-node baseline, and checkpoint-recovered or out-of-shard cells build
// nothing.  An arch with nodes > 1 takes Simulator::run's multi-node path.
// Each cell builds its own buffer policy, and the per-run scratch vectors
// live in one RunScratch per pool worker; workers never share it.  Workers
// claim cells one at a time, results land in row-major order, and every cell
// is bit-identical to a fresh serial run at any thread count.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "sim/config.hpp"
#include "sim/configuration.hpp"
#include "sim/metrics.hpp"
#include "sim/workload_registry.hpp"

namespace cello::trace {
class ChromeTraceWriter;
}  // namespace cello::trace

namespace cello::sim {

struct SweepGrid;  // sim/shard.hpp: full grid definition for distributed sweeps
struct ShardPlan;  // sim/shard.hpp: one shard's slice of the grid

/// One grid cell's outcome: metrics on success, or a quarantined failure
/// record (error non-empty, metrics zeroed) when the cell threw under
/// SweepOptions::keep_going.  The error message always names the cell — its
/// flattened index, workload spec and configuration name — so a failure in a
/// million-cell sweep is attributable without re-running anything.
struct SweepResult {
  std::string workload;
  std::string config;
  /// Canonical fabric spec ("1", "mesh:2x2", ...) when the grid carries a
  /// fabric axis (SweepGrid::fabrics beyond the single-chip default); empty
  /// on classic two-axis grids, keeping their serialized form unchanged, and
  /// on run() cells, whose arch is given by their row-major position.
  std::string fabric;
  RunMetrics metrics;
  std::string error;  ///< empty = success

  bool ok() const { return error.empty(); }
};

/// Fault-tolerance and observability knobs for a sweep (see sim/checkpoint.hpp
/// for the journal format).  Defaults reproduce the historical behavior: no
/// journal, abort on the first failing cell, no retries, no tracing.
struct SweepOptions {
  /// Quarantine failing cells as error records instead of aborting the sweep;
  /// every other cell completes bit-identically to a clean run.
  bool keep_going = false;
  /// Re-run a failing cell up to this many extra times (deterministically, on
  /// the same worker, before its error is recorded or rethrown) — transient
  /// faults survive, persistent ones still fail with full context.
  u32 retries = 0;
  /// Append-only cell journal path; empty = no checkpointing.  Only valid for
  /// shard-scoped runs (run_shard), whose grid fingerprint keys the journal.
  std::string checkpoint;
  /// Load an existing journal at `checkpoint` (skipping completed cells and
  /// truncating any torn tail) instead of refusing to touch it.  A missing
  /// journal file simply starts fresh, so retry loops can always pass this.
  bool resume = false;
  /// Cell tracing: called once per executed cell with its flattened
  /// row-major id; a non-null return traces that cell into the returned
  /// in-memory writer (borrowed; must outlive the sweep), whose document the
  /// caller stores once the sweep returns.  A traced cell's document equals
  /// the one a direct Simulator::run of the same workload/arch/configuration
  /// writes; give each traced cell its own writer to keep the output
  /// deterministic.  Called concurrently from pool workers, so the callback
  /// must be thread-safe.  Checkpoint-recovered cells are never consulted
  /// (they re-emit nothing).
  std::function<trace::ChromeTraceWriter*(size_t cell)> trace_sink_for;
};

class SweepRunner {
 public:
  /// @param threads  worker count; 0 = std::thread::hardware_concurrency().
  explicit SweepRunner(u32 threads = 0) : threads_(threads) {}

  /// Run every workload under every arch and every configuration.  Result
  /// (i*archs + a)*configs + j holds workload i under archs[a] and
  /// configuration j.  An empty arch list throws cello::Error.  The first
  /// exception thrown by any cell is rethrown — wrapped with the failing
  /// cell's index, workload and configuration — once the workers stop; a
  /// failure makes every worker abandon the remaining cells instead of
  /// burning through the grid.
  /// options.keep_going quarantines failing cells as error records instead,
  /// and options.retries re-runs transient failures.  Options requesting a
  /// checkpoint journal are rejected here — journals are keyed by a grid
  /// fingerprint, so they require run_shard.
  std::vector<SweepResult> run(const std::vector<Workload>& workloads,
                               const std::vector<Configuration>& configs,
                               const std::vector<AcceleratorConfig>& archs,
                               const SweepOptions& options = {}) const;

  /// Shard-scoped, name-driven entry point (see sim/shard.hpp): resolve the
  /// grid's workload specs in the global WorkloadRegistry (each distinct
  /// spec's DAG is built once) and its configuration names in the global
  /// ConfigRegistry, then run only the plan's cells, in plan order.  Only
  /// the workloads and artifacts the shard's pending cells touch are
  /// resolved and built, and every cell is bit-identical to the same
  /// cell of a full-grid run, so merge_shards() reassembles the exact
  /// single-process result vector.  options.checkpoint appends every
  /// completed cell to a crash-safe journal (sim/checkpoint.hpp) keyed by
  /// the grid fingerprint; options.resume loads it, skips completed cells
  /// and truncates any torn tail, making an interrupted-then-resumed shard
  /// byte-identical to an uninterrupted one.  keep_going / retries behave
  /// as in run().
  std::vector<SweepResult> run_shard(const SweepGrid& grid, const ShardPlan& plan,
                                     const SweepOptions& options = {}) const;

  u32 threads() const { return threads_; }

 private:
  /// The one grid loop behind run() and run_shard(); see sweep.cpp.
  static std::vector<SweepResult> run_grid(u32 threads, const std::vector<Workload>& workloads,
                                           const std::vector<Configuration>& configs,
                                           const std::vector<AcceleratorConfig>& archs,
                                           const SweepOptions& opts, const SweepGrid* grid,
                                           const ShardPlan* plan);

  u32 threads_;
};

}  // namespace cello::sim
