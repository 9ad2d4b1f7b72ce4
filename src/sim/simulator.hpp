// sim::Simulator: owns the accelerator architecture plus the (optional) real
// sparse-matrix context and evaluates a DAG under any sim::Configuration.
//
//   sim::Simulator simulator(arch, &matrix);
//   auto cello = simulator.run(dag, sim::ConfigRegistry::global().at("Cello"));
//
// One unified loop serves every configuration: the Router (schedule policy)
// decides where each operand access is serviced and the BufferPolicy models
// the buffer hierarchy.  Analytic policies account traffic at tensor
// granularity per scheduled op; trace-driven cache policies replay the run's
// captured line-granularity access stream.  run() is const and reentrant —
// every run builds its own BufferPolicy and drops it when it ends — which is
// what SweepRunner exploits.
//
// Every optional per-run input travels in one RunArtifacts bundle (shared
// immutable schedule/address-map/reuse-index/router-tables/stream, a reusable
// RunScratch, a trace writer), so run() has exactly one signature; whatever
// the bundle leaves null comes from a sim::ArtifactCache:
//
//   sim::RunArtifacts art;
//   art.scratch = &scratch;                          // vectors reused across runs
//   art.trace = &writer;                             // op-level Perfetto trace
//   auto m = simulator.run(dag, config, art);
#pragma once

#include <vector>

#include "ir/dag.hpp"
#include "score/reuse_index.hpp"
#include "score/schedule.hpp"
#include "sim/address_map.hpp"
#include "sim/config.hpp"
#include "sim/configuration.hpp"
#include "sim/metrics.hpp"
#include "sparse/csr.hpp"

namespace cello::trace {
class ChromeTraceWriter;
}  // namespace cello::trace

namespace cello::cache {
struct BufferService;  // cache/cache.hpp
}  // namespace cello::cache

namespace cello::sim {

class BufferPolicy;
using cache::BufferService;
struct RouterTables;   // sim/policies/schedule_policy.hpp
struct AccessStream;   // sim/access_stream.hpp
class ArtifactCache;   // sim/artifact_cache.hpp

/// Reusable per-run scratch: the simulator's per-base vectors and the reuse
/// cursor.  Every vector is re-assigned per run, so a run through a scratch
/// is bit-identical to one on fresh storage; reusing it only keeps the
/// capacity.  One RunScratch belongs to one caller thread at a time.
class RunScratch {
 public:
  RunScratch();
  ~RunScratch();
  RunScratch(const RunScratch&) = delete;
  RunScratch& operator=(const RunScratch&) = delete;

 private:
  friend class Simulator;
  score::ReuseCursor cursor_;
  std::vector<Bytes> traffic_;
  std::vector<u8> traffic_touched_;
  std::vector<u8> rf_loaded_;
  std::vector<u8> result_base_;
  std::vector<double> group_compute_;
  std::vector<double> group_dram_;
  std::vector<i32> retire_bases_;
  /// Per-step services of the run's stream replay.
  std::vector<BufferService> replay_services_;
};

/// Every optional per-run input to Simulator::run, in one bundle — adding a
/// cross-cutting input (a scratch, a trace writer, ...) extends this struct
/// instead of multiplying overloads.  All pointers are borrowed and may be
/// null.  Every null artifact is filled from a sim::ArtifactCache — a
/// private one per one-shot call, the sweep-wide one inside SweepRunner —
/// so a default-constructed RunArtifacts builds everything the run needs
/// once.  A null reuse index, router tables or stream is derived from the
/// run's schedule and address map, supplied or not, so a partial bundle
/// never builds a second schedule.
struct RunArtifacts {
  /// Precomputed schedule; must equal score::build_schedule(dag,
  /// schedule_options(config)).  Travels with address_map: both or neither.
  /// Read-only here, so one immutable copy serves many concurrent runs.
  const score::Schedule* schedule = nullptr;
  /// AddressMap::build(dag); required exactly when `schedule` is set.
  const AddressMap* address_map = nullptr;
  /// score::ReuseIndex::build(dag, *schedule, map.base_of, map.entries
  /// .size()); requires `schedule` alongside.
  const score::ReuseIndex* reuse_index = nullptr;
  /// RouterTables::build(dag, *schedule, config.schedule,
  /// config.allow_delayed_hold, effective_arch(config)); requires `schedule`
  /// alongside.
  const RouterTables* router_tables = nullptr;
  /// Reusable per-run scratch vectors, re-assigned — not reallocated — for
  /// this run.  Bit-identical to running without one.
  RunScratch* scratch = nullptr;
  /// Op-level trace writer (see trace/trace.hpp) the run appends its events
  /// to; null = no tracing, at the cost of one pointer test per scheduled
  /// step.  Traced runs return the exact metrics of untraced ones.
  trace::ChromeTraceWriter* trace = nullptr;
  /// Pre-captured access stream of (`schedule`, `address_map`) and this
  /// configuration's routing — see AccessStream::capture; requires
  /// `schedule` alongside.  Only trace-driven policies replay a stream, and
  /// only they fetch one from the cache when this is null.  A stream
  /// captured under another (line_bytes, rf_bytes) or schedule throws
  /// cello::Error.
  const AccessStream* access_stream = nullptr;
};

class Simulator {
 public:
  explicit Simulator(AcceleratorConfig arch, const sparse::CsrMatrix* matrix = nullptr)
      : arch_(arch), matrix_(matrix) {}

  /// Evaluate one configuration.  THE run signature: every optional input
  /// (shared immutable setup, reusable scratch, trace writer) rides in
  /// `artifacts`; the default bundle builds everything in a private
  /// ArtifactCache.  With arch().nodes > 1 this is the multi-chip model of
  /// Sec. V-B: one node's shard runs on a single chip and fold_multinode adds
  /// the routed collectives and the parallel efficiency against the 1-node
  /// run of the whole DAG.
  RunMetrics run(const ir::TensorDag& dag, const Configuration& config,
                 const RunArtifacts& artifacts = {}) const;

  /// The exact scheduling inputs (score::build_schedule's options) of a
  /// configuration.
  /// Configurations with equal options build identical schedules for a given
  /// DAG — this is the key ArtifactCache shares schedules by, so any future
  /// knob that affects scheduling must be folded in here.
  score::ScheduleOptions schedule_options(const Configuration& config) const;

  /// The architecture a configuration runs under.  Configurations carry no
  /// architecture of their own, so this is arch() for every configuration.
  AcceleratorConfig effective_arch(const Configuration& config) const;

  const AcceleratorConfig& arch() const { return arch_; }
  const sparse::CsrMatrix* matrix() const { return matrix_; }

 private:
  friend class SweepRunner;  // shares one ArtifactCache across a sweep call

  /// run() with the artifacts it is not handed taken from `cache`.
  RunMetrics run(const ir::TensorDag& dag, const Configuration& config,
                 const RunArtifacts& artifacts, ArtifactCache& cache) const;

  /// The unified single-chip loop; `stream` is non-null exactly when
  /// `policy` is trace-driven.
  RunMetrics run_impl(const ir::TensorDag& dag, const Configuration& config,
                      const AcceleratorConfig& arch, const score::Schedule& sched,
                      const AddressMap& map, const score::ReuseIndex& reuse_index,
                      const RouterTables& tables, RunScratch& scratch, BufferPolicy& policy,
                      const AccessStream* stream, trace::ChromeTraceWriter* writer) const;

  AcceleratorConfig arch_;
  const sparse::CsrMatrix* matrix_;
};

}  // namespace cello::sim
