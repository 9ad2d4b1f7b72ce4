// SCORE scheduling (Sec. V-B / V-C of the paper).
//
// Given the classified DAG, SCORE:
//  * orders operations (program order — the builders emit Algorithm 1 order),
//  * picks per-op loop orders: the dominant rank goes outermost so the large
//    tensor stays stationary and the small tensor streams from the register
//    file; ops participating in pipelining instead get an uncontracted rank
//    shared with the pipelined tensor outermost (the codependence conditions),
//  * chooses one layout per tensor to minimize layout transformation
//    (swizzle) across its consumers,
//  * verifies which pipelineable edges are *realized* (codependence holds and
//    the shared tensor is not swizzled) — unrealized ones demote to
//    sequential (operand written back),
//  * binds every tensor to a residency class: register file (small tensors,
//    no search needed), pipeline buffer (all consumers pipeline/hold), CHORD
//    (delayed-writeback/sequential consumers), or DRAM (dead outputs).
//
// The coarse-grained reuse metadata SCORE hands to CHORD's RIFF policy
// (per-use frequency and distance) is derived from the schedule's step order
// by score::ReuseIndex (score/reuse_index.hpp).
#pragma once

#include <string>
#include <vector>

#include "ir/dag.hpp"
#include "score/dependency.hpp"

namespace cello::score {

enum class Residency { RegisterFile, PipelineBuffer, Chord, Dram };

const char* to_string(Residency r);

struct OpSchedule {
  ir::OpId op = ir::kInvalidOp;
  /// Rank names, outermost first.
  std::vector<std::string> loop_order;
  /// Ops sharing a group id pipeline together (rate-limited jointly).
  i32 pipeline_group = -1;
};

struct ScheduleOptions {
  Bytes rf_bytes = 64 * 1024;     ///< register-file capacity for "small" tensors
  bool enable_pipelining = true;  ///< off = pure op-by-op (best-intra baselines)
  bool minimize_swizzle = true;   ///< off = producer-preferred layout (ablation)

  /// Equal options build identical schedules for a given DAG — the
  /// sim::ArtifactCache keys schedules on them (ordered, as a map key).
  auto operator<=>(const ScheduleOptions&) const = default;
};

struct Schedule {
  std::vector<OpSchedule> steps;       ///< execution order
  Classification deps;                 ///< per-edge kinds after demotion
  std::vector<bool> edge_realized;     ///< per EdgeId: serviced by pipeline buffer
  std::vector<Residency> residency;    ///< per TensorId
  std::vector<std::string> layout;     ///< per TensorId: stored major rank ("" = any)
  i32 swizzle_count = 0;               ///< layout transforms the schedule could not avoid
};

Schedule build_schedule(const ir::TensorDag& dag, const ScheduleOptions& opts = {});

}  // namespace cello::score
