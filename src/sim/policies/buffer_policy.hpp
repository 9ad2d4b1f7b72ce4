// BufferPolicy: the on-chip buffer hierarchy half of a sim::Configuration.
//
// A policy services the operand accesses the schedule routes to it (see
// Router) and owns the corresponding on-chip energy model.  Two servicing
// styles exist:
//  * analytic (tensor granularity): ExplicitBuffers, PreludeOnly, Chord —
//    read_tensor / write_tensor are called once per routed operand;
//  * trace-driven (cache-line granularity): CachePolicy (LRU / BRRIP) —
//    replay consumes the run's captured AccessStream (every op's line
//    accesses, including the SpMM gather against the real sparse matrix
//    when provided) in one pass before the simulator's op loop.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "chord/chord.hpp"
#include "common/error.hpp"
#include "ir/dag.hpp"
#include "sim/address_map.hpp"
#include "sim/config.hpp"
#include "sim/metrics.hpp"

namespace cello::sim {

struct AccessStream;

/// DRAM traffic incurred by one serviced access, or by one whole step for
/// trace-driven policies: the cache replay's per-step service type.
using cache::BufferService;

struct DrainContext {
  const ir::TensorDag* dag = nullptr;
  const AddressMap* map = nullptr;
  /// True when the schedule already routed final results straight to DRAM
  /// (SCORE), leaving nothing resident to drain.
  bool results_written_through = false;
};

/// One per-base-tensor slice of the end-of-run drain.  An empty base name
/// contributes drain timing without per-tensor attribution (cache flush).
struct DrainItem {
  std::string base;
  Bytes dram_write = 0;
};

class BufferPolicy {
 public:
  virtual ~BufferPolicy() = default;

  virtual bool trace_driven() const { return false; }

  // ---- analytic interface (tensor granularity) -----------------------------
  virtual BufferService read_tensor(const chord::TensorMeta&) { return {}; }
  virtual BufferService write_tensor(const chord::TensorMeta&) { return {}; }
  /// The base tensor's last consumer ran: release any residency it held.
  virtual void retire(i32 /*base_id*/) {}

  // ---- trace-driven interface (whole run) ----------------------------------
  /// Replay the run's captured access stream end to end, filling one
  /// BufferService per scheduled step and leaving the policy in its final
  /// state.  The one way a trace-driven policy is serviced; throws
  /// cello::Error for a stream captured under another span geometry, a
  /// policy that already serviced accesses, or a policy that is not
  /// trace-driven.
  virtual void replay(const AccessStream& /*stream*/,
                      std::vector<BufferService>& /*services*/) {
    throw Error("this buffer policy is not trace-driven: it has no stream replay");
  }

  /// Bytes of on-chip buffer capacity currently holding live data: pinned /
  /// resident tensor bytes for the analytic policies, valid lines x line size
  /// for the trace-driven caches.  Pure observability (the trace subsystem
  /// samples it per step into a counter track) — implementations must not
  /// perturb policy state.  Streaming policies that retain nothing report 0.
  virtual Bytes occupancy_bytes() const { return 0; }

  /// Drain still-resident state (dirty lines, resident result prefixes) at
  /// the end of the run.  nullopt = no drain stage for this policy.
  virtual std::optional<std::vector<DrainItem>> drain(const DrainContext&) {
    return std::nullopt;
  }

  /// Fill the on-chip side of the metrics (sram_line_accesses,
  /// onchip_energy_pj) and, for trace-driven policies, fold in the
  /// authoritative DRAM totals.  `pipeline_sram_lines` counts the pipeline
  /// buffer staging accesses issued by the simulator itself.
  virtual void finalize(const AcceleratorConfig& arch, u64 pipeline_sram_lines,
                        RunMetrics& m) const = 0;
};

/// Configurations hold a factory, not an instance: every run gets a fresh,
/// independently stateful policy (which is what makes SweepRunner's parallel
/// fan-out safe).
using BufferPolicyFactory =
    std::function<std::unique_ptr<BufferPolicy>(const AcceleratorConfig&)>;

}  // namespace cello::sim
