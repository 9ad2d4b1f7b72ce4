#include "ir/dag.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

#include "common/error.hpp"

namespace cello::ir {

TensorDag::TensorDag(const TensorDag& other)
    : arena_(std::make_unique<Arena>()),
      tensors_(other.tensors_),
      ops_(other.ops_),
      edges_(other.edges_),
      producer_of_(other.producer_of_) {
  // The member copies are self-owned (ArenaVector copies never alias the
  // source arena); re-intern them so the copy is arena-backed like any DAG.
  for (auto& t : tensors_) {
    t.ranks.intern(*arena_);
    t.dims.intern(*arena_);
  }
  for (auto& op : ops_) {
    op.ranks.intern(*arena_);
    op.inputs.intern(*arena_);
  }
  // Adjacency lists are rebuilt against the copy's own arena.
  consumers_of_ = other.consumers_of_;
  tensor_edges_ = other.tensor_edges_;
  out_edges_ = other.out_edges_;
  in_edges_ = other.in_edges_;
  for (auto& v : consumers_of_) v.intern(*arena_);
  for (auto& v : tensor_edges_) v.intern(*arena_);
  for (auto& v : out_edges_) v.intern(*arena_);
  for (auto& v : in_edges_) v.intern(*arena_);
}

TensorDag& TensorDag::operator=(TensorDag&& other) noexcept {
  if (this != &other) {
    // Arena-resident payloads must die before their arena: a defaulted
    // member-wise move assigns arena_ first, freeing the chunks this DAG's
    // nodes still point into.
    tensors_.clear();
    ops_.clear();
    edges_.clear();
    producer_of_.clear();
    consumers_of_.clear();
    tensor_edges_.clear();
    out_edges_.clear();
    in_edges_.clear();
    arena_ = std::move(other.arena_);
    tensors_ = std::move(other.tensors_);
    ops_ = std::move(other.ops_);
    edges_ = std::move(other.edges_);
    producer_of_ = std::move(other.producer_of_);
    consumers_of_ = std::move(other.consumers_of_);
    tensor_edges_ = std::move(other.tensor_edges_);
    out_edges_ = std::move(other.out_edges_);
    in_edges_ = std::move(other.in_edges_);
  }
  return *this;
}

TensorDag& TensorDag::operator=(const TensorDag& other) {
  if (this != &other) {
    TensorDag copy(other);
    *this = std::move(copy);
  }
  return *this;
}

TensorId TensorDag::add_tensor(TensorDesc t) {
  t.id = static_cast<TensorId>(tensors_.size());
  CELLO_CHECK_MSG(t.ranks.size() == t.dims.size(),
                  "tensor " << t.name << ": ranks/dims size mismatch");
  t.ranks.intern(*arena_);
  t.dims.intern(*arena_);
  tensors_.push_back(std::move(t));
  producer_of_.push_back(kInvalidOp);
  consumers_of_.emplace_back(arena_.get());
  tensor_edges_.emplace_back(arena_.get());
  return tensors_.back().id;
}

OpId TensorDag::add_op(EinsumOp op) {
  op.id = static_cast<OpId>(ops_.size());
  for (TensorId in : op.inputs) CELLO_CHECK(in >= 0 && in < static_cast<i32>(tensors_.size()));
  CELLO_CHECK(op.output >= 0 && op.output < static_cast<i32>(tensors_.size()));
  CELLO_CHECK_MSG(producer_of_[op.output] == kInvalidOp,
                  "op " << op.name << ": output " << tensors_[op.output].name
                        << " is already produced by " << ops_[producer_of_[op.output]].name);
  CELLO_CHECK_MSG(consumers_of_[op.output].empty() &&
                      std::find(op.inputs.begin(), op.inputs.end(), op.output) == op.inputs.end(),
                  "op " << op.name << ": output " << tensors_[op.output].name
                        << " is already consumed (ops must be added in dataflow order)");
  out_edges_.emplace_back(arena_.get());
  in_edges_.emplace_back(arena_.get());
  for (size_t i = 0; i < op.inputs.size(); ++i) {
    const TensorId in = op.inputs[i];
    bool repeat = false;  // an op consuming a tensor twice (R^T R) lists once
    for (size_t j = 0; j < i; ++j) repeat = repeat || op.inputs[j] == in;
    if (repeat) continue;
    consumers_of_[in].push_back(op.id);
    const OpId src = producer_of_[in];
    if (src == kInvalidOp) continue;  // external input
    const auto e = static_cast<EdgeId>(edges_.size());
    edges_.push_back(Edge{e, src, op.id, in});
    out_edges_[src].push_back(e);
    in_edges_[op.id].push_back(e);
    tensor_edges_[in].push_back(e);
  }
  producer_of_[op.output] = op.id;
  op.ranks.intern(*arena_);
  op.inputs.intern(*arena_);
  ops_.push_back(std::move(op));
  return ops_.back().id;
}

void TensorDag::mark_append(TensorId prev, TensorId next) {
  CELLO_CHECK(prev >= 0 && prev < static_cast<i32>(tensors_.size()));
  CELLO_CHECK(next >= 0 && next < static_cast<i32>(tensors_.size()));
  CELLO_CHECK_MSG(prev != next, "append chain cannot self-link " << tensors_[next].name);
  CELLO_CHECK_MSG(tensors_[next].append_prev == kInvalidTensor,
                  "tensor " << tensors_[next].name << " already has an append predecessor");
  CELLO_CHECK_MSG(tensors_[next].bytes() >= tensors_[prev].bytes(),
                  "append-only base shrinks: " << tensors_[prev].name << " -> "
                                               << tensors_[next].name);
  tensors_[prev].append_only = true;
  tensors_[next].append_only = true;
  tensors_[next].append_prev = prev;
}

Bytes TensorDag::appended_bytes(TensorId t) const {
  const TensorDesc& desc = tensor(t);
  if (desc.append_prev == kInvalidTensor) return desc.bytes();
  return desc.bytes() - tensor(desc.append_prev).bytes();
}

const TensorDesc& TensorDag::tensor(TensorId t) const {
  CELLO_CHECK(t >= 0 && t < static_cast<i32>(tensors_.size()));
  return tensors_[t];
}

const EinsumOp& TensorDag::op(OpId o) const {
  CELLO_CHECK(o >= 0 && o < static_cast<i32>(ops_.size()));
  return ops_[o];
}

const Edge& TensorDag::edge(EdgeId e) const {
  CELLO_CHECK(e >= 0 && e < static_cast<i32>(edges_.size()));
  return edges_[e];
}

std::vector<OpId> TensorDag::topo_order() const {
  std::vector<OpId> order(ops_.size());
  std::iota(order.begin(), order.end(), OpId{0});
  return order;
}

i64 TensorDag::longest_path_len(OpId src, OpId dst) const {
  return static_cast<i64>(longest_path(src, dst).size()) - 1;
}

std::vector<OpId> TensorDag::longest_path(OpId src, OpId dst) const {
  std::vector<i64> dist(ops_.size(), -1);
  std::vector<OpId> pred(ops_.size(), kInvalidOp);
  dist[src] = 0;
  // Ids are topological and edges point forward, so only src..dst matter.
  for (OpId u = src; u < dst; ++u) {
    if (dist[u] < 0) continue;
    for (const EdgeId eid : out_edges_[u]) {
      const Edge& e = edges_[eid];
      if (dist[u] + 1 > dist[e.dst]) {
        dist[e.dst] = dist[u] + 1;
        pred[e.dst] = u;
      }
    }
  }
  if (dist[dst] < 0) return {};
  std::vector<OpId> path;
  for (OpId v = dst; v != kInvalidOp; v = pred[v]) {
    path.push_back(v);
    if (v == src) break;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

i64 TensorDag::schedule_distance(const Edge& e, const std::vector<OpId>& order) const {
  std::vector<i64> pos(ops_.size(), -1);
  for (size_t i = 0; i < order.size(); ++i) pos[order[i]] = static_cast<i64>(i);
  CELLO_CHECK(pos[e.src] >= 0 && pos[e.dst] >= 0);
  return pos[e.dst] - pos[e.src];
}

std::string TensorDag::to_dot() const {
  std::ostringstream os;
  os << "digraph cello {\n  rankdir=LR;\n";
  for (const auto& o : ops_)
    os << "  n" << o.id << " [label=\"" << o.name << "\\n" << to_string(o.dominance())
       << "\"];\n";
  for (const auto& e : edges_)
    os << "  n" << e.src << " -> n" << e.dst << " [label=\"" << tensor(e.tensor).name
       << (is_transitive(e) ? " (T)" : "") << "\"];\n";
  os << "}\n";
  return os.str();
}

}  // namespace cello::ir
