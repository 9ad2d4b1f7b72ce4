#include "sim/partition.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace cello::sim {

std::string pick_shard_rank(const ir::TensorDag& dag) {
  std::string best;
  i64 best_size = 1;
  for (const auto& op : dag.ops()) {
    for (const auto& r : op.ranks) {
      if (r.contracted || r.size <= best_size) continue;
      best = r.name;
      best_size = r.size;
    }
  }
  CELLO_CHECK_MSG(!best.empty(), "cannot shard: no op has an uncontracted rank with extent > 1");
  return best;
}

Partition build_partition(const ir::TensorDag& dag, i64 nodes) {
  CELLO_CHECK_MSG(nodes >= 1, "partition: nodes must be >= 1 (got " << nodes << ")");
  Partition part;
  part.nodes = nodes;
  part.shard_rank = pick_shard_rank(dag);
  const std::string& rank = part.shard_rank;

  i64 extent = 0;
  for (const auto& op : dag.ops()) {
    for (const auto& r : op.ranks) {
      if (!r.contracted && r.name == rank) extent = std::max(extent, r.size);
    }
  }
  CELLO_CHECK_MSG(nodes <= extent, "partition: " << nodes << " nodes exceed the shard rank '"
                                                 << rank << "' extent " << extent);

  // One node's slice, rebuilt node-for-node through add_tensor/add_op so
  // ids and marks line up with the full DAG (add_op derives the same edges).
  // Every extent of the shard rank divides as ceil(extent / nodes): the
  // straggler's share, since whole-system time is the slowest node's.
  for (const auto& src : dag.tensors()) {
    ir::TensorDesc t;
    t.name = src.name;
    t.word_bytes = src.word_bytes;
    t.storage = src.storage;
    t.nnz = src.nnz;
    t.is_result = src.is_result;
    t.append_only = src.append_only;
    t.append_prev = src.append_prev;
    for (size_t i = 0; i < src.ranks.size(); ++i) {
      t.ranks.push_back(src.ranks[i]);
      t.dims.push_back(src.ranks[i] == rank ? ceil_div(src.dims[i], nodes) : src.dims[i]);
    }
    // Compressed tensors sharded on their row rank keep 1/nodes of the
    // stored entries (balanced row distribution — the model's assumption).
    if (src.storage == ir::Storage::CompressedSparse && !src.ranks.empty() &&
        src.ranks.front() == rank) {
      t.nnz = ceil_div(src.nnz, nodes);
    }
    const ir::TensorId id = part.shard.add_tensor(std::move(t));
    CELLO_CHECK(id == src.id);
  }
  for (const auto& src : dag.ops()) {
    ir::EinsumOp op;
    op.name = src.name;
    op.kind = src.kind;
    op.output = src.output;
    op.macs_override = src.macs_override;
    bool has_shard = false;
    for (const auto& r : src.ranks) {
      ir::OpRank nr = r;
      if (r.name == rank) {
        has_shard = true;
        nr.size = ceil_div(r.size, nodes);
        if (r.effective_size >= 0) nr.effective_size = ceil_div(r.effective_size, nodes);
      }
      op.ranks.push_back(nr);
    }
    if (has_shard && src.macs_override >= 0) op.macs_override = ceil_div(src.macs_override, nodes);
    for (ir::TensorId in : src.inputs) op.inputs.push_back(in);
    const ir::OpId id = part.shard.add_op(std::move(op));
    CELLO_CHECK(id == src.id);
  }

  // Classify every tensor against the shard boundary (Algorithm 2's rank
  // test, applied across chips instead of across buffer levels):
  //  * shard-rank tensors are node-local slices — zero fabric traffic under
  //    SCORE, but exactly what the naive pipeline split would ship;
  //  * shard-rank-free *produced* tensors whose producer contracts the shard
  //    rank hold per-node partials — a reduction;
  //  * shard-rank-free *external* operands read by a shard-rank op must be
  //    replicated — a broadcast;
  //  * everything else is replicated computation with no traffic.
  part.tensor_class.assign(dag.tensors().size(), ShardClass::Local);
  for (const auto& full_t : dag.tensors()) {
    const auto prod = dag.producer(full_t.id);
    if (full_t.has_rank(rank)) {
      if (prod && nodes > 1) {
        part.naive_bytes += part.shard.tensor(full_t.id).bytes() * static_cast<Bytes>(nodes);
      }
      continue;
    }
    ShardClass cls = ShardClass::Local;
    if (prod) {
      for (const auto& r : dag.op(*prod).ranks) {
        if (r.contracted && r.name == rank) cls = ShardClass::Reduce;
      }
    } else {
      for (ir::OpId consumer : dag.consumers(full_t.id)) {
        for (const auto& r : dag.op(consumer).ranks) {
          if (r.name == rank) cls = ShardClass::Broadcast;
        }
      }
    }
    part.tensor_class[static_cast<size_t>(full_t.id)] = cls;
    if (cls != ShardClass::Local && nodes > 1) {
      part.transfers.push_back({full_t.id, full_t.bytes(), cls});
    }
  }
  return part;
}

NocCost price_noc(const std::vector<Partition::Transfer>& transfers, const noc::Topology& topo,
                  const AcceleratorConfig& arch) {
  NocCost cost;
  const i64 p = topo.nodes();
  if (p <= 1 || transfers.empty()) return cost;
  std::vector<Bytes> link_bytes(topo.num_links(), 0);
  for (const auto& x : transfers) {
    if (x.cls == ShardClass::Reduce) {
      // Partials converge on node 0, the combined tensor fans back out.
      for (i64 s = 1; s < p; ++s) {
        const i32 node = static_cast<i32>(s);
        cost.byte_hops += x.bytes * static_cast<Bytes>(topo.route(node, 0, x.bytes, &link_bytes));
        cost.byte_hops += x.bytes * static_cast<Bytes>(topo.route(0, node, x.bytes, &link_bytes));
      }
      cost.seconds += 2.0 * topo.depth() * arch.noc_hop_seconds;
    } else {
      for (i64 s = 1; s < p; ++s) {
        cost.byte_hops +=
            x.bytes * static_cast<Bytes>(topo.route(0, static_cast<i32>(s), x.bytes, &link_bytes));
      }
      cost.seconds += topo.depth() * arch.noc_hop_seconds;
    }
  }
  if (!link_bytes.empty()) {
    cost.max_link_bytes = *std::max_element(link_bytes.begin(), link_bytes.end());
  }
  // Links serialize: the busiest directed link bounds collective throughput.
  if (arch.noc_link_bytes_per_sec > 0) {
    cost.seconds += static_cast<double>(cost.max_link_bytes) / arch.noc_link_bytes_per_sec;
  }
  return cost;
}

RunMetrics fold_multinode(const RunMetrics& per_node, double baseline_seconds,
                          const Partition& part, const noc::Topology& topo,
                          const AcceleratorConfig& arch) {
  const i64 p = part.nodes;
  CELLO_CHECK(p == topo.nodes());
  RunMetrics m = per_node;
  if (p <= 1) return m;
  const NocCost cost = price_noc(part.transfers, topo, arch);
  const Bytes bp = static_cast<Bytes>(p);
  m.nodes = p;
  m.total_macs *= p;
  m.dram_bytes *= bp;
  m.dram_read_bytes *= bp;
  m.dram_write_bytes *= bp;
  m.sram_line_accesses *= bp;
  m.onchip_energy_pj *= static_cast<double>(p);
  for (auto& [name, bytes] : m.traffic_by_tensor) bytes *= bp;
  for (auto& op : m.per_op) {
    op.macs *= p;
    op.dram_bytes *= bp;
  }
  m.noc_bytes = cost.byte_hops;
  m.naive_noc_bytes = part.naive_bytes;
  m.noc_seconds = cost.seconds;
  m.seconds = per_node.seconds + cost.seconds;
  m.offchip_energy_pj = per_node.offchip_energy_pj * static_cast<double>(p) +
                        static_cast<double>(cost.byte_hops) * arch.noc_energy_pj_per_byte;
  if (m.seconds > 0 && arch.noc_link_bytes_per_sec > 0) {
    m.max_link_utilization =
        static_cast<double>(cost.max_link_bytes) / arch.noc_link_bytes_per_sec / m.seconds;
  }
  if (m.seconds > 0) m.parallel_efficiency = baseline_seconds / (static_cast<double>(p) * m.seconds);
  return m;
}

}  // namespace cello::sim
