// AccessStream: the capture half of the trace-driven cache path — the cache
// is fed only by captured traces.
//
// A stream is the config-independent, byte-granular access sequence of one
// (workload DAG, schedule, AddressMap, router) slot: every span the routed
// ops drive through the cache — CSR segments, gather runs resolved through
// row_ptr/col_idx exactly once, small-operand re-streams, output writebacks.
// Its data is a cache::SpanStream (periodic structure, struct-of-arrays
// spans, per-step op boundaries, address window), which cache::StreamReplayer
// replays as is; AccessStream adds the capture and the span geometry it was
// captured under.  Every trace-driven run replays one (see
// CachePolicy::replay): Simulator::run captures its own unless handed one,
// and any cache geometry sharing the capture's (line_bytes, rf_bytes) can
// replay it, so one capture amortizes address generation across a whole
// column of sweep configs — ChampSim-style trace-vs-model decoupling.
//
// Iterative workloads (CG, BiCGStab, decode loops) touch the SAME addresses
// every iteration: AddressMap aliases per-iteration tensor instances onto
// their base tensor.  capture() detects that periodicity at the scheduled-op
// level and materializes only prefix + one period + suffix; the replayer
// loops the period block and fast-forwards once the cache state itself
// becomes periodic.
#pragma once

#include "cache/cache_replay.hpp"
#include "ir/dag.hpp"
#include "score/schedule.hpp"
#include "sim/address_map.hpp"
#include "sim/config.hpp"
#include "sparse/csr.hpp"

namespace cello::sim {

class Router;

struct AccessStream : cache::SpanStream {
  // ---- geometry the spans were derived under ----
  // Span derivation reads exactly these two architecture knobs (operand
  // partitioning + gather-run mergeability); replay under any arch sharing
  // them is exact, which is what lets one stream serve every cache geometry
  // in a sweep column.
  u32 line_bytes = 0;
  Bytes rf_bytes = 0;

  /// True when `arch` matches the capture-time span-derivation inputs.
  bool compatible(const AcceleratorConfig& arch) const {
    return line_bytes == arch.line_bytes && rf_bytes == arch.rf_bytes;
  }

  /// Field for field: equal streams replay identically under any arch.
  bool operator==(const AccessStream&) const = default;

  /// Derive the stream for one (dag, schedule, map, router) slot.  `matrix`
  /// may be null (synthetic gather); `router` must be built over the same
  /// dag + schedule.  Deterministic: equal inputs produce equal streams.
  static AccessStream capture(const ir::TensorDag& dag, const score::Schedule& sched,
                              const AddressMap& map, const sparse::CsrMatrix* matrix,
                              const AcceleratorConfig& arch, const Router& router);
};

}  // namespace cello::sim
