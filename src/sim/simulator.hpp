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
// captured line-granularity access stream.  run() is const and reentrant — a
// fresh BufferPolicy is built per run — which is what SweepRunner exploits.
//
// Every optional per-run input travels in one RunArtifacts bundle (shared
// immutable schedule/address-map/reuse-index/router-tables, a pooled
// RunScratch, a trace sink), so run() has exactly one real signature:
//
//   sim::RunArtifacts art;
//   art.schedule = &sched; art.address_map = &map;   // prebuilt, shared
//   art.trace = &writer;                             // op-level Perfetto trace
//   auto m = simulator.run(dag, config, art);
#pragma once

#include <map>
#include <memory>
#include <string>
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
class TraceSink;
}  // namespace cello::trace

namespace cello::sim {

class BufferPolicy;
struct BufferService;  // sim/policies/buffer_policy.hpp
struct RouterTables;   // sim/policies/schedule_policy.hpp
struct AccessStream;   // sim/access_stream.hpp

/// Reusable per-run state: the simulator's per-base scratch vectors, the
/// reuse cursors, and a pool of reset-instead-of-reconstructed BufferPolicy
/// instances (keyed by configuration name + the constructing arch, so a
/// scratch reused across architectures rebuilds instead of replaying stale
/// geometry).  One RunScratch belongs to one caller thread at a time and to
/// one configuration set — names must identify policies uniquely, since a
/// pooled policy is reused whenever its configuration name recurs.
/// SweepRunner owns one per pool worker, so a sweep cell's setup reuses the
/// previous cell's capacity instead of reallocating.
/// Runs through a scratch are bit-identical to fresh-state runs: every vector
/// is re-assigned per run and pooled policies must restore constructed state
/// in reset() (see BufferPolicy::reusable()).
class RunScratch {
 public:
  RunScratch();
  ~RunScratch();
  RunScratch(RunScratch&&) noexcept;
  RunScratch& operator=(RunScratch&&) noexcept;
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
  /// Pooled policies by configuration name.  The constructing arch rides
  /// along so a reuse with a different effective arch rebuilds instead of
  /// silently replaying against stale geometry.
  struct PooledPolicy {
    std::unique_ptr<BufferPolicy> policy;
    AcceleratorConfig arch;
  };
  std::map<std::string, PooledPolicy> policies_;
  /// Per-step services of the run's stream replay (capacity pooled across
  /// runs).
  std::vector<BufferService> replay_services_;
};

/// Every optional per-run input to Simulator::run, in one bundle — adding a
/// cross-cutting input (a scratch, a trace sink, ...) extends this struct
/// instead of multiplying overloads.  All pointers are borrowed and may be
/// null; a default-constructed RunArtifacts reproduces the classic
/// build-everything-fresh run.
struct RunArtifacts {
  /// Precomputed schedule; must equal make_schedule(dag, config).  Travels
  /// with address_map: both or neither.  Read-only here, so one immutable
  /// copy serves many concurrent runs — SweepRunner builds one per
  /// (workload, schedule-options) slot instead of one per cell.
  const score::Schedule* schedule = nullptr;
  /// AddressMap::build(dag); required exactly when `schedule` is set.
  const AddressMap* address_map = nullptr;
  /// score::ReuseIndex::build(dag, *schedule, map.base_of, map.entries
  /// .size()); optional — derived from schedule + address_map when null.
  const score::ReuseIndex* reuse_index = nullptr;
  /// RouterTables::build(dag, *schedule, config.schedule,
  /// config.allow_delayed_hold, effective_arch(config)); optional — the
  /// Router builds private tables when null.
  const RouterTables* router_tables = nullptr;
  /// Reusable per-run mutable state: vectors and pooled buffer policies are
  /// reset — not reallocated — for this run.  Bit-identical to running
  /// without one.
  RunScratch* scratch = nullptr;
  /// Op-level trace sink (see trace/trace.hpp); null = no tracing, at the
  /// cost of one pointer test per scheduled step.  Traced runs return the
  /// exact metrics of untraced ones.
  trace::TraceSink* trace = nullptr;
  /// Pre-captured access stream of (`schedule`, `address_map`) and this
  /// configuration's routing — see AccessStream::capture; requires
  /// `schedule` alongside.  Trace-driven policies always replay a stream:
  /// when this is null the run captures its own, so supplying one only
  /// shares the capture across runs (SweepRunner captures one per column).
  /// A stream captured under another (line_bytes, rf_bytes) or schedule
  /// throws cello::Error.  Analytic policies ignore it.
  const AccessStream* access_stream = nullptr;
};

class Simulator {
 public:
  explicit Simulator(AcceleratorConfig arch, const sparse::CsrMatrix* matrix = nullptr)
      : arch_(arch), matrix_(matrix) {}

  /// Evaluate one configuration.  THE run signature: every optional input
  /// (shared immutable setup, pooled scratch, trace sink) rides in
  /// `artifacts`; the default bundle builds everything fresh.
  RunMetrics run(const ir::TensorDag& dag, const Configuration& config,
                 const RunArtifacts& artifacts = {}) const;

  /// The schedule the configuration's schedule policy would build.
  score::Schedule make_schedule(const ir::TensorDag& dag, const Configuration& config) const;

  /// The exact scheduling inputs make_schedule derives from a configuration.
  /// Configurations with equal options build identical schedules for a given
  /// DAG — this is the cache key SweepRunner shares schedules by, so any
  /// future knob that affects scheduling must be folded in here.
  score::ScheduleOptions schedule_options(const Configuration& config) const;

  /// Architecture after applying the configuration's knob overrides.
  AcceleratorConfig effective_arch(const Configuration& config) const;

  const AcceleratorConfig& arch() const { return arch_; }
  const sparse::CsrMatrix* matrix() const { return matrix_; }

 private:
  /// The unified single-chip loop; every public run() lands here with the
  /// artifacts fully resolved.
  RunMetrics run_impl(const ir::TensorDag& dag, const Configuration& config,
                      const AcceleratorConfig& arch, const score::Schedule& sched,
                      const AddressMap& map, const score::ReuseIndex& reuse_index,
                      const RouterTables* tables, RunScratch* scratch,
                      trace::TraceSink* sink, const AccessStream* stream) const;

  AcceleratorConfig arch_;
  const sparse::CsrMatrix* matrix_;
};

/// Emit the NoC collective span of a folded multi-node run onto `sink`'s noc
/// track: the routed collectives occupy [per_node_seconds, per_node_seconds +
/// folded.noc_seconds).  Shared by the direct multi-node path and a traced
/// sweep cell (which folds NoC cost itself), so their traces agree.
void trace_collectives(trace::TraceSink& sink, const RunMetrics& folded,
                       double per_node_seconds);

}  // namespace cello::sim
