// DAG partitioning for multi-chip scale-out (Sec. V-B "Scalable Dataflow").
//
// SCORE's scaling argument: shard the dominant uncontracted rank across
// nodes so every pipeline stays cluster-local, and only tensors *without*
// that rank cross the NoC — contracted-dominant partials as reductions,
// small shared operands as broadcasts.  The alternative (splitting a
// pipeline across nodes) ships the skewed sharded intermediates; we track
// that as `naive_bytes` so the score-vs-naive traffic gap is visible in
// every multi-node RunMetrics.
//
// `build_partition` emits ONE node's shard as a structurally identical
// TensorDag (same ids, same edges, sharded extents) through add_tensor /
// add_op, so the existing Simulator/policy machinery runs it unchanged.
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"
#include "ir/dag.hpp"
#include "noc/topology.hpp"
#include "sim/config.hpp"
#include "sim/metrics.hpp"

namespace cello::sim {

/// How a tensor relates to the shard boundary.
enum class ShardClass {
  Local,      ///< carries the shard rank (or never crosses the fabric)
  Reduce,     ///< contracted-dominant partial: per-node copies combine at a root
  Broadcast,  ///< shard-rank-free operand every node needs a full copy of
};

struct Partition {
  i64 nodes = 1;
  std::string shard_rank;
  /// One node's slice of the workload (ids match the full DAG's).
  ir::TensorDag shard;
  /// Classification per TensorId of the full DAG.
  std::vector<ShardClass> tensor_class;

  /// One cross-fabric collective (a Reduce or Broadcast tensor), in
  /// ascending tensor-id order — the deterministic NoC pricing input.
  struct Transfer {
    ir::TensorId tensor = ir::kInvalidTensor;
    Bytes bytes = 0;  ///< payload per node (the full unsharded tensor)
    ShardClass cls = ShardClass::Local;
  };
  std::vector<Transfer> transfers;

  /// Traffic of the naive split: ship every produced shard-rank tensor to
  /// wherever the next pipeline stage runs (bytes * nodes).
  Bytes naive_bytes = 0;
};

/// The rank to shard on: the largest rank that appears uncontracted in at
/// least one op (ties broken by first appearance in op/rank order).  Throws
/// if the DAG has no uncontracted rank with extent > 1.
std::string pick_shard_rank(const ir::TensorDag& dag);

/// Split `dag` across `nodes` chips on pick_shard_rank(dag).  Extents divide
/// as ceil(extent / nodes) (the straggler node's slice — we price the
/// critical path); nodes beyond the shard extent are rejected.
Partition build_partition(const ir::TensorDag& dag, i64 nodes);

/// NoC cost of a partition's collectives on a concrete fabric.
struct NocCost {
  Bytes byte_hops = 0;        ///< sum over transfers of bytes * hops traversed
  Bytes max_link_bytes = 0;   ///< busiest directed link's accumulated bytes
  double seconds = 0;         ///< tree-depth latency + busiest-link serialization
};

/// Price `transfers` on `topo`: reductions converge on node 0 and broadcast
/// back, broadcasts fan out from node 0, every leg routed hop-by-hop with
/// per-link byte accounting (no in-network combining/multicast — links
/// serialize, so fabric saturation shows up as a busiest-link term).
NocCost price_noc(const std::vector<Partition::Transfer>& transfers, const noc::Topology& topo,
                  const AcceleratorConfig& arch);

/// Fold one node's shard metrics into whole-system multi-node metrics:
/// aggregate counters scale by `nodes`, NoC time/traffic from `price_noc`
/// lands next to DRAM traffic, and parallel_efficiency compares against the
/// 1-node baseline `baseline_seconds`.
RunMetrics fold_multinode(const RunMetrics& per_node, double baseline_seconds,
                          const Partition& part, const noc::Topology& topo,
                          const AcceleratorConfig& arch);

}  // namespace cello::sim
