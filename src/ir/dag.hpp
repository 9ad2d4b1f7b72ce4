// Tensor-dependency DAG: einsum operators connected by edges that each carry
// the tensor flowing from producer to consumer (Fig. 1 of the paper).
//
// The ops alone decide the structure: add_op() gives a new op one edge from
// the producer of each distinct input that has one, in operand order; an
// input with no producer is an external input (e.g. the sparse matrix A).
// An op's output must not yet be produced or consumed, so ops are added in
// dataflow order and the DAG is acyclic by construction.
//
// The DAG provides the structural analyses SCORE needs:
//  * topological order (the execution order of a temporally scheduled DAG),
//  * longest paths between node pairs,
//  * the transitive-edge test of Algorithm 2 (footnote 5: "a transitive edge
//    is the edge not on the longest path between the source and the
//    destination"),
//  * schedule distance (number of scheduled steps an edge spans), which
//    generalizes transitivity to cross-iteration back-to-self dependencies
//    such as X(line 3, iter i) -> X(line 3, iter i+1) in CG.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "ir/einsum.hpp"
#include "ir/tensor.hpp"

namespace cello::ir {

using EdgeId = i32;

struct Edge {
  EdgeId id = -1;
  OpId src = kInvalidOp;
  OpId dst = kInvalidOp;
  TensorId tensor = kInvalidTensor;
};

class TensorDag {
 public:
  // ---- construction -------------------------------------------------------
  TensorId add_tensor(TensorDesc t);
  /// Append `op` and its in-edges (see the header comment); throws
  /// cello::Error if its output already has a producer or a consumer.
  OpId add_op(EinsumOp op);

  /// Mark a tensor as a final result that must be drained to memory.
  void mark_result(TensorId t) { tensors_[t].is_result = true; }

  /// Declare `next` the append-only successor of `prev`: both instances of
  /// the same growing base (KV cache), with `next` extending `prev` by
  /// `appended_bytes(next)`.  Extents must be non-shrinking.
  void mark_append(TensorId prev, TensorId next);

  /// Bytes `t` adds over its append-predecessor: the whole footprint for a
  /// chain head (or a non-append tensor), the extent delta otherwise.
  Bytes appended_bytes(TensorId t) const;

  // ---- accessors ----------------------------------------------------------
  const std::vector<TensorDesc>& tensors() const { return tensors_; }
  const std::vector<EinsumOp>& ops() const { return ops_; }
  const std::vector<Edge>& edges() const { return edges_; }

  const TensorDesc& tensor(TensorId t) const;
  const EinsumOp& op(OpId o) const;
  const Edge& edge(EdgeId e) const;

  // Adjacency queries are O(1) lookups into incrementally-maintained index
  // lists (ascending-id order, matching what a full scan of edges()/ops()
  // would produce) — schedule construction and per-run routing consult them
  // on their hot paths.
  /// Edges leaving op `o`: an op writes one tensor, so these are the edges
  /// carrying its output.
  const std::vector<EdgeId>& out_edges(OpId o) const { return tensor_edges_[ops_[o].output]; }
  /// Consumers of tensor `t` (ops that list it as input; each op once).
  const std::vector<OpId>& consumers(TensorId t) const { return consumers_of_[t]; }
  /// Edges carrying tensor `t`.
  const std::vector<EdgeId>& tensor_edges(TensorId t) const { return tensor_edges_[t]; }
  /// Producer of tensor `t` within the DAG, or nullopt for external inputs.
  std::optional<OpId> producer(TensorId t) const {
    return producer_of_[t] == kInvalidOp ? std::nullopt : std::optional<OpId>(producer_of_[t]);
  }

  // ---- structural analyses ------------------------------------------------
  /// Topological order: insertion order, which add_op() keeps topological.
  std::vector<OpId> topo_order() const;

  /// Length (in edges) of the longest src->dst path, or -1 if unreachable.
  i64 longest_path_len(OpId src, OpId dst) const;
  /// Node sequence (inclusive of endpoints) of one longest src->dst path.
  std::vector<OpId> longest_path(OpId src, OpId dst) const;

  /// True iff a longer path than the direct edge exists (footnote 5).
  bool is_transitive(const Edge& e) const { return longest_path_len(e.src, e.dst) > 1; }

  /// Number of scheduled steps between the edge's endpoints under `order`
  /// (positions are indices into `order`).  An edge spanning more than one
  /// step cannot be serviced by simple producer/consumer pipelining.
  i64 schedule_distance(const Edge& e, const std::vector<OpId>& order) const;

  /// Graphviz DOT with nodes annotated by dominance (Fig. 7 style).
  std::string to_dot() const;

 private:
  std::vector<TensorDesc> tensors_;
  std::vector<EinsumOp> ops_;
  std::vector<Edge> edges_;

  // Incremental adjacency (see the accessor block above).
  std::vector<OpId> producer_of_;                 ///< per tensor; kInvalidOp = external
  std::vector<std::vector<OpId>> consumers_of_;    ///< per tensor
  std::vector<std::vector<EdgeId>> tensor_edges_;  ///< per tensor
};

}  // namespace cello::ir
