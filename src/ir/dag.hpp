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

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ir/arena.hpp"
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
  // Every node's variable-length payload (rank names, dims, operand lists)
  // ends up in one bump arena owned by the DAG: new_tensor()/new_op() hand
  // out nodes whose payloads allocate there directly (the zero-heap-churn
  // builder path), while free-standing TensorDesc/EinsumOp values are
  // interned — copied into the arena — by add_tensor()/add_op().  Either way
  // the stored nodes are arena-backed, so traversal is cache-friendly and
  // destruction frees a handful of chunks instead of one block per node.
  TensorDag() : arena_(std::make_unique<Arena>()) {}
  TensorDag(TensorDag&&) noexcept = default;
  /// Member-wise move would replace the arena before the old node vectors
  /// (whose payloads live in it) are destroyed — drop them first.
  TensorDag& operator=(TensorDag&& other) noexcept;
  /// Deep copy: nodes are re-interned into the copy's own arena, so copies
  /// never alias the source DAG's storage.
  TensorDag(const TensorDag& other);
  TensorDag& operator=(const TensorDag& other);

  /// A node pre-bound to this DAG's arena (fill fields, then add_tensor).
  TensorDesc new_tensor() { return TensorDesc(*arena_); }
  /// A node pre-bound to this DAG's arena (fill fields, then add_op).
  EinsumOp new_op() { return EinsumOp(*arena_); }

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

  // Adjacency queries are O(1) lookups into incrementally-maintained,
  // arena-backed index lists (ascending-id order, matching what a full scan
  // of edges()/ops() used to produce) — schedule construction and per-run
  // routing consult them on their hot paths.
  const ArenaVector<EdgeId>& out_edges(OpId o) const { return out_edges_[o]; }
  const ArenaVector<EdgeId>& in_edges(OpId o) const { return in_edges_[o]; }
  /// Consumers of tensor `t` (ops that list it as input; each op once).
  const ArenaVector<OpId>& consumers(TensorId t) const { return consumers_of_[t]; }
  /// Edges carrying tensor `t`.
  const ArenaVector<EdgeId>& tensor_edges(TensorId t) const { return tensor_edges_[t]; }
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

  /// The backing store for node payloads; alive exactly as long as the DAG.
  const Arena& arena() const { return *arena_; }

 private:
  // Declared first so node payloads (which live in arena chunks) are
  // destroyed before the arena itself releases the memory.
  std::unique_ptr<Arena> arena_;  ///< unique_ptr: stable address across moves
  std::vector<TensorDesc> tensors_;
  std::vector<EinsumOp> ops_;
  std::vector<Edge> edges_;

  // Incremental adjacency (see the accessor block above).
  std::vector<OpId> producer_of_;                ///< per tensor; kInvalidOp = external
  std::vector<ArenaVector<OpId>> consumers_of_;  ///< per tensor
  std::vector<ArenaVector<EdgeId>> tensor_edges_;  ///< per tensor
  std::vector<ArenaVector<EdgeId>> out_edges_;   ///< per op
  std::vector<ArenaVector<EdgeId>> in_edges_;    ///< per op
};

}  // namespace cello::ir
