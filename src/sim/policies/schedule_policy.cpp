#include "sim/policies/schedule_policy.hpp"

namespace cello::sim {

const char* to_string(SchedulePolicy p) {
  switch (p) {
    case SchedulePolicy::OpByOp: return "op-by-op";
    case SchedulePolicy::AdjacentPipeline: return "adjacent-pipeline";
    case SchedulePolicy::Score: return "SCORE";
  }
  return "?";
}

namespace {

using score::DepKind;
using score::Residency;

/// Tensor-level pipelining decisions: a tensor stays on chip only when
/// *every* consumer is serviced by the pipeline buffer.  AdjacentPipeline
/// without holds (FLAT) additionally requires strictly adjacent realized
/// pipelining; with holds (SET) and under SCORE, delayed holds are allowed up
/// to the hold budget.
std::vector<bool> pipelined_tensors(const ir::TensorDag& dag, const score::Schedule& sched,
                                    SchedulePolicy policy, bool allow_delayed_hold,
                                    const AcceleratorConfig& arch) {
  std::vector<bool> piped(dag.tensors().size(), false);
  if (policy == SchedulePolicy::OpByOp) return piped;
  const bool adjacent_only = policy == SchedulePolicy::AdjacentPipeline && !allow_delayed_hold;

  std::vector<i64> pos(dag.ops().size());
  for (size_t i = 0; i < sched.steps.size(); ++i) pos[sched.steps[i].op] = static_cast<i64>(i);

  for (const auto& t : dag.tensors()) {
    if (!dag.producer(t.id).has_value()) continue;
    if (dag.consumers(t.id).empty()) continue;
    bool ok = true;
    bool uses_hold = false;
    for (const ir::EdgeId eid : dag.tensor_edges(t.id)) {
      const ir::Edge& e = dag.edge(eid);
      if (!sched.edge_realized[e.id]) {
        ok = false;
        break;
      }
      const DepKind k = sched.deps.edge_kind[e.id];
      if (k == DepKind::DelayedHold) uses_hold = true;
      if (adjacent_only && (k != DepKind::Pipelineable || pos[e.dst] - pos[e.src] != 1)) {
        ok = false;  // FLAT: strictly adjacent pipelining, no hold
        break;
      }
    }
    if (uses_hold && t.bytes() > arch.hold_budget_bytes) ok = false;
    piped[t.id] = ok;
  }
  return piped;
}

}  // namespace

RouterTables RouterTables::build(const ir::TensorDag& dag, const score::Schedule& sched,
                                 SchedulePolicy policy, bool allow_delayed_hold,
                                 const AcceleratorConfig& arch) {
  RouterTables t;
  t.pipelined = pipelined_tensors(dag, sched, policy, allow_delayed_hold, arch);
  t.residency = sched.residency;
  // A tensor SCORE bound to the pipeline buffer that cannot actually stay
  // there (hold budget, unrealized edge) demotes to the buffer hierarchy.
  for (const auto& desc : dag.tensors())
    if (t.residency[desc.id] == Residency::PipelineBuffer && !t.pipelined[desc.id])
      t.residency[desc.id] = Residency::Chord;
  return t;
}

Router::Router(const ir::TensorDag& dag, const score::Schedule& sched, SchedulePolicy policy,
               const RouterTables& tables)
    : dag_(dag), sched_(sched), policy_(policy), tables_(tables) {}

Route Router::route_input(const ir::EinsumOp& op, ir::TensorId in) const {
  switch (policy_) {
    case SchedulePolicy::OpByOp:
      return Route::Buffer;
    case SchedulePolicy::AdjacentPipeline:
      return tables_.pipelined[in] ? Route::PipelineBuffer : Route::Buffer;
    case SchedulePolicy::Score: {
      if (auto p = dag_.producer(in)) {
        for (const ir::EdgeId eid : dag_.out_edges(*p)) {
          const ir::Edge& e = dag_.edge(eid);
          if (e.dst == op.id && e.tensor == in && sched_.edge_realized[e.id])
            return Route::PipelineBuffer;
        }
      }
      if (tables_.residency[in] == Residency::RegisterFile) return Route::RegisterFile;
      return Route::Buffer;
    }
  }
  return Route::Buffer;
}

Route Router::route_output(const ir::EinsumOp& op) const {
  switch (policy_) {
    case SchedulePolicy::OpByOp:
      return Route::Buffer;
    case SchedulePolicy::AdjacentPipeline:
      return tables_.pipelined[op.output] ? Route::PipelineBuffer : Route::Buffer;
    case SchedulePolicy::Score: {
      if (dag_.consumers(op.output).empty()) {
        // SCORE knows liveness: results drain to memory, dead intermediates
        // are never written.
        return dag_.tensor(op.output).is_result ? Route::DirectDram : Route::Discard;
      }
      if (tables_.residency[op.output] == Residency::RegisterFile) return Route::RegisterFile;
      if (tables_.residency[op.output] == Residency::PipelineBuffer) return Route::PipelineBuffer;
      return Route::Buffer;
    }
  }
  return Route::Buffer;
}

bool Router::linked_onchip(ir::OpId prev, ir::OpId cur) const {
  for (const ir::EdgeId eid : dag_.out_edges(prev)) {
    const ir::Edge& e = dag_.edge(eid);
    if (e.dst != cur) continue;
    const bool onchip =
        policy_ == SchedulePolicy::Score ? sched_.edge_realized[e.id] : tables_.pipelined[e.tensor];
    if (onchip) return true;
  }
  return false;
}

}  // namespace cello::sim
