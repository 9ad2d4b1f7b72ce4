// AccessStream: the capture half of the trace-driven cache path — the cache
// is fed only by captured traces.
//
// A stream is the config-independent, byte-granular access sequence of one
// (workload DAG, schedule, AddressMap, router) slot: every span the routed
// ops drive through the cache — CSR segments, gather runs resolved through
// row_ptr/col_idx exactly once, small-operand re-streams, output writebacks —
// in struct-of-arrays form with per-scheduled-op boundary markers.  Every
// trace-driven run replays one (see cache::StreamReplayer /
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
// becomes periodic.  A stream with period_steps == 0 is simply linear
// (everything lives in the prefix).
#pragma once

#include <vector>

#include "ir/dag.hpp"
#include "score/schedule.hpp"
#include "sim/address_map.hpp"
#include "sim/config.hpp"
#include "sparse/csr.hpp"

namespace cello::cache {
struct ReplaySpans;
}

namespace cello::sim {

class Router;

struct AccessStream {
  // ---- geometry the spans were derived under ----
  // Span derivation reads exactly these two architecture knobs (operand
  // partitioning + gather-run mergeability); replay under any arch sharing
  // them is exact, which is what lets one stream serve every cache geometry
  // in a sweep column.
  u32 line_bytes = 0;
  Bytes rf_bytes = 0;

  // ---- periodic structure over scheduled ops ----
  u64 schedule_steps = 0;  ///< steps in the source schedule
  u64 prefix_steps = 0;    ///< materialized leading steps
  u64 period_steps = 0;    ///< steps per occurrence; 0 = no period (linear)
  u64 period_count = 0;    ///< occurrences the schedule contains (>= 2 when periodic)
  u64 suffix_steps = 0;    ///< materialized trailing steps

  // ---- spans of the materialized steps (prefix, one period, suffix) ----
  std::vector<Addr> addr;
  std::vector<u32> len;
  std::vector<u8> write;
  /// Per materialized step: exclusive span index — step s owns spans
  /// [op_end[s-1], op_end[s]).  These are the op boundary markers replay
  /// converts span traffic back into per-step BufferServices at.
  std::vector<u32> op_end;

  Addr min_addr = 0;   ///< lowest byte any span touches
  Addr max_addr = 0;   ///< highest byte any span touches (inclusive)
  u64 total_lines = 0;  ///< line count over the whole schedule (periods expanded)

  u64 materialized_steps() const { return prefix_steps + period_steps + suffix_steps; }
  size_t spans() const { return addr.size(); }

  /// True when `arch` matches the capture-time span-derivation inputs.
  bool compatible(const AcceleratorConfig& arch) const {
    return line_bytes == arch.line_bytes && rf_bytes == arch.rf_bytes;
  }

  /// The borrowed view cache::StreamReplayer consumes; valid while this
  /// stream is alive and unchanged.
  cache::ReplaySpans replay_view() const;

  /// Order-sensitive digest of the full stream (header + every span array);
  /// two captures of the same slot are identical iff fingerprints match.
  u64 fingerprint() const;

  /// Derive the stream for one (dag, schedule, map, router) slot.  `matrix`
  /// may be null (synthetic gather); `router` must be built over the same
  /// dag + schedule.  Deterministic: equal inputs produce equal streams.
  static AccessStream capture(const ir::TensorDag& dag, const score::Schedule& sched,
                              const AddressMap& map, const sparse::CsrMatrix* matrix,
                              const AcceleratorConfig& arch, const Router& router);
};

}  // namespace cello::sim
