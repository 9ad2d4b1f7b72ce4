// Schedule policies: how a configuration orders ops and which producer ->
// consumer edges it services on chip.
//
// The policy is orthogonal to the buffer hierarchy (see BufferPolicy): a
// Configuration pairs one of each.  The Router turns a policy plus a built
// SCORE schedule into per-operand routing decisions the simulator executes.
#pragma once

#include <algorithm>
#include <vector>

#include "ir/dag.hpp"
#include "score/schedule.hpp"
#include "sim/config.hpp"

namespace cello::sim {

enum class SchedulePolicy {
  OpByOp,            ///< no pipelining: every op begins and ends in the buffer hierarchy
  AdjacentPipeline,  ///< tensor-level pipelining of realized producer/consumer chains
                     ///< (FLAT; SET when delayed holds are allowed)
  Score,             ///< SCORE: per-edge servicing + residency classes (register
                     ///< file / pipeline buffer / CHORD / DRAM)
};

const char* to_string(SchedulePolicy p);

/// Where one operand access is serviced.
enum class Route {
  PipelineBuffer,  ///< on-chip pipeline buffer (producer/consumer chaining)
  RegisterFile,    ///< small-tensor register file (externals pay one cold fetch)
  Buffer,          ///< the configuration's BufferPolicy
  DirectDram,      ///< bypass the hierarchy (SCORE draining a final result)
  Discard,         ///< dead output SCORE proves is never needed again
};

/// Immutable per-tensor routing tables: the pipelining and (hold-budget
/// demoted) residency vectors the Router consults per operand access.  They
/// depend only on (dag, schedule, policy, allow_delayed_hold, arch), so one
/// build serves every run sharing those inputs read-only — sim::ArtifactCache
/// builds one per (DAG, schedule, ArtifactCache::RouteKey).
struct RouterTables {
  std::vector<bool> pipelined;  ///< per TensorId: every consumer serviced on chip
  /// Per TensorId, after demoting pipeline-buffer residents that cannot
  /// actually stay (hold budget, unrealized edge) to the buffer hierarchy.
  std::vector<score::Residency> residency;

  static RouterTables build(const ir::TensorDag& dag, const score::Schedule& sched,
                            SchedulePolicy policy, bool allow_delayed_hold,
                            const AcceleratorConfig& arch);
};

/// Per-run routing oracle: binds a SchedulePolicy to one DAG + schedule.
class Router {
 public:
  /// Borrow shared immutable tables; `tables` must equal RouterTables::build
  /// of the same (dag, sched, policy, hold flag, arch) inputs and outlive the
  /// Router.
  Router(const ir::TensorDag& dag, const score::Schedule& sched, SchedulePolicy policy,
         const RouterTables& tables);

  Route route_input(const ir::EinsumOp& op, ir::TensorId in) const;
  Route route_output(const ir::EinsumOp& op) const;

  /// The serviced-operand rule, which the simulator's op loop and
  /// AccessStream::capture both follow: calls `f(in, route_input(op, in))`
  /// for each input of `op` that is serviced.  An operand used twice (R^T R)
  /// is serviced once.  The operand an in-place append extends into its own
  /// output (KV-cache decode) is not serviced: no data moves for the
  /// untouched prefix, and the output write prices the step's growth.
  template <typename F>
  void for_each_serviced_input(const ir::EinsumOp& op, F&& f) const {
    const auto& in = op.inputs;
    for (auto it = in.begin(); it != in.end(); ++it)
      if (std::find(in.begin(), it, *it) == it && dag_.tensor(op.output).append_prev != *it)
        f(*it, route_input(op, *it));
  }

  /// True when an edge between two consecutively scheduled ops is serviced on
  /// chip — the steps then share a pipeline timing group.
  bool linked_onchip(ir::OpId prev, ir::OpId cur) const;
  bool pipelines() const { return policy_ != SchedulePolicy::OpByOp; }

  /// Tensors serviced entirely by the pipeline buffer (tensor-level view).
  const std::vector<bool>& pipelined() const { return tables_.pipelined; }

 private:
  const ir::TensorDag& dag_;
  const score::Schedule& sched_;
  SchedulePolicy policy_;
  const RouterTables& tables_;
};

}  // namespace cello::sim
