#include "score/schedule.hpp"

#include <algorithm>
#include <map>

#include "common/error.hpp"

namespace cello::score {

const char* to_string(Residency r) {
  switch (r) {
    case Residency::RegisterFile: return "register_file";
    case Residency::PipelineBuffer: return "pipeline_buffer";
    case Residency::Chord: return "chord";
    case Residency::Dram: return "dram";
  }
  return "?";
}

namespace {

/// Loop order: ranks by descending effective extent (dominant outermost, so
/// the large tensor is stationary and the small tensor streams from the RF).
/// Pipeline *sources* additionally put their largest uncontracted rank
/// outermost — the codependence condition of Sec. V-B requires the producer
/// to emit the shared tensor along an uncontracted rank.
std::vector<std::string> pick_loop_order(const ir::EinsumOp& op, bool is_pipe_source) {
  std::vector<const ir::OpRank*> ranked;
  ranked.reserve(op.ranks.size());
  for (const auto& r : op.ranks) ranked.push_back(&r);
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const ir::OpRank* a, const ir::OpRank* b) {
                     return a->effective() > b->effective();
                   });
  if (is_pipe_source) {
    // Move the largest uncontracted rank to the front if it is not already.
    for (size_t i = 0; i < ranked.size(); ++i) {
      if (!ranked[i]->contracted) {
        std::rotate(ranked.begin(), ranked.begin() + static_cast<std::ptrdiff_t>(i),
                    ranked.begin() + static_cast<std::ptrdiff_t>(i) + 1);
        break;
      }
    }
  }
  std::vector<std::string> names;
  names.reserve(ranked.size());
  for (const auto* r : ranked) names.push_back(r->name);
  return names;
}

/// Outermost rank of `order` that indexes tensor `t` ("" if none): the layout
/// the op would like the tensor stored in.
std::string preferred_major(const std::vector<std::string>& order, const ir::TensorDesc& t) {
  for (const auto& r : order)
    if (t.has_rank(r)) return r;
  return "";
}

}  // namespace

Schedule build_schedule(const ir::TensorDag& dag, const ScheduleOptions& opts) {
  Schedule s;

  // Execution order: the builders emit ops in program (Algorithm 1) order and
  // topo_order() is insertion order, so this is both topological and faithful
  // to the paper's schedule (Fig. 8).
  const std::vector<ir::OpId> order = dag.topo_order();
  s.deps = classify_scheduled(dag, order);

  // Which ops source a pipelineable/hold edge (affects their loop order).
  std::vector<bool> pipe_source(dag.ops().size(), false);
  if (opts.enable_pipelining) {
    for (const auto& e : dag.edges()) {
      const DepKind k = s.deps.edge_kind[e.id];
      if (k == DepKind::Pipelineable || k == DepKind::DelayedHold) pipe_source[e.src] = true;
    }
  }

  s.steps.reserve(order.size());
  for (ir::OpId o : order) {
    OpSchedule step;
    step.op = o;
    step.loop_order = pick_loop_order(dag.op(o), pipe_source[o]);
    s.steps.push_back(std::move(step));
  }

  // ---- layout / swizzle minimization ---------------------------------------
  s.layout.assign(dag.tensors().size(), "");
  std::vector<std::vector<std::string>> op_loop(dag.ops().size());
  for (const auto& step : s.steps) op_loop[step.op] = step.loop_order;

  for (const auto& t : dag.tensors()) {
    // RF-resident tensors stream whole from the register file; their layout
    // never materializes in on-chip memory, so they cannot need a swizzle.
    const bool counts_for_swizzle = t.bytes() > opts.rf_bytes;
    // Votes: the producer's generation order plus every consumer's desire.
    std::map<std::string, int> votes;
    std::string producer_major;
    if (auto p = dag.producer(t.id)) {
      producer_major = preferred_major(op_loop[*p], t);
      if (!producer_major.empty()) ++votes[producer_major];
    }
    std::vector<std::string> consumer_major;
    for (ir::OpId c : dag.consumers(t.id)) {
      const std::string m = preferred_major(op_loop[c], t);
      consumer_major.push_back(m);
      if (!m.empty()) ++votes[m];
    }
    std::string chosen = producer_major;
    if (opts.minimize_swizzle) {
      int best = -1;
      for (const auto& [major, n] : votes) {
        if (n > best) {
          best = n;
          chosen = major;
        }
      }
    }
    s.layout[t.id] = chosen;
    if (counts_for_swizzle) {
      if (!producer_major.empty() && !chosen.empty() && producer_major != chosen)
        ++s.swizzle_count;
      for (const auto& m : consumer_major)
        if (!m.empty() && !chosen.empty() && m != chosen) ++s.swizzle_count;
    }
  }

  // ---- pipeline realization -------------------------------------------------
  // A pipelineable/hold edge is realized when the codependence conditions of
  // Sec. V-B hold: source streams an uncontracted rank outermost, the
  // destination's outermost shared rank matches, and the shared tensor is not
  // swizzled between them.  Unrealized edges demote to sequential/writeback.
  std::vector<i64> pos(dag.ops().size());
  for (size_t i = 0; i < order.size(); ++i) pos[order[i]] = static_cast<i64>(i);

  s.edge_realized.assign(dag.edges().size(), false);
  for (const auto& e : dag.edges()) {
    DepKind& k = s.deps.edge_kind[e.id];
    if (k != DepKind::Pipelineable && k != DepKind::DelayedHold) continue;
    if (!opts.enable_pipelining) {
      k = (k == DepKind::Pipelineable) ? DepKind::Sequential : DepKind::DelayedWriteback;
      continue;
    }
    const ir::TensorDesc& t = dag.tensor(e.tensor);
    const auto& src_order = op_loop[e.src];
    const auto& dst_order = op_loop[e.dst];
    bool ok = !src_order.empty() && !dst_order.empty();
    if (ok) {
      // Source outermost rank must be uncontracted and index the tensor.
      const ir::EinsumOp& src = dag.op(e.src);
      bool src_ok = false;
      for (const auto& r : src.ranks)
        if (r.name == src_order.front()) src_ok = !r.contracted && t.has_rank(r.name);
      // Destination's *outermost loop* must be the shared rank (strict
      // codependence: consumer walks the tensor in production order).
      const std::string src_major = preferred_major(src_order, t);
      ok = src_ok && t.has_rank(dst_order.front()) && dst_order.front() == src_major;
      // The shared tensor must be consumed in the produced layout (no swizzle).
      ok = ok && (s.layout[t.id].empty() || s.layout[t.id] == src_major);
    }
    if (ok) {
      s.edge_realized[e.id] = true;
    } else {
      k = (k == DepKind::Pipelineable) ? DepKind::Sequential : DepKind::DelayedWriteback;
    }
  }

  // ---- pipeline groups -------------------------------------------------------
  // Maximal runs of consecutive steps joined by realized adjacent edges.
  i32 group = 0;
  for (size_t i = 0; i < s.steps.size(); ++i) {
    if (i > 0) {
      bool joined = false;
      for (const ir::EdgeId eid : dag.out_edges(s.steps[i - 1].op)) {
        const ir::Edge& e = dag.edge(eid);
        if (e.dst == s.steps[i].op && s.edge_realized[e.id] && pos[e.dst] - pos[e.src] == 1)
          joined = true;
      }
      if (!joined) ++group;
    }
    s.steps[i].pipeline_group = group;
  }

  // ---- residency binding --------------------------------------------------------
  s.residency.assign(dag.tensors().size(), Residency::Dram);
  for (const auto& t : dag.tensors()) {
    const auto consumers = dag.consumers(t.id);
    if (consumers.empty()) {
      s.residency[t.id] = Residency::Dram;  // final outputs drain to memory
      continue;
    }
    if (t.bytes() <= opts.rf_bytes) {
      s.residency[t.id] = Residency::RegisterFile;
      continue;
    }
    bool all_pipelined = dag.producer(t.id).has_value();
    for (const ir::EdgeId eid : dag.tensor_edges(t.id))
      if (!s.edge_realized[eid]) all_pipelined = false;
    s.residency[t.id] = all_pipelined ? Residency::PipelineBuffer : Residency::Chord;
  }
  return s;
}

}  // namespace cello::score
