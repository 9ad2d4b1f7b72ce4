// KvCachePolicy: a KV-cache-aware buffer for autoregressive decode.
//
// Append-only bases (ir::TensorDag::mark_append chains, surfaced through
// chord::TensorMeta::append_only) get cache semantics tuned to how a KV cache
// is actually used:
//  * a step's write pins only the APPENDED rows on chip (the previous extent
//    is already resident or already spilled — never rewritten),
//  * a read hits on the resident bytes and fetches just the missing tail
//    from DRAM, re-installing it for later steps when space allows,
//  * residency is a global FIFO ring over pinned segments: when the SRAM
//    budget is exceeded the oldest segments are evicted — dirty ones (pinned
//    on write, never spilled) pay their DRAM writeback at that moment, so
//    spill traffic is priced through the same roofline as everything else.
//
// Everything that is NOT an append-only base (weights, activations) streams
// at full footprint like ExplicitBuffersPolicy: the policy spends its entire
// SRAM budget on the cache, which is the design point real decode
// accelerators pick once the KV footprint dominates.
#pragma once

#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/policies/buffer_policy.hpp"

namespace cello::sim {

struct KvCacheStats {
  Bytes kv_read_hit_bytes = 0;   ///< cache reads served from resident rows
  Bytes kv_read_miss_bytes = 0;  ///< cache reads fetched from DRAM
  Bytes kv_spill_bytes = 0;      ///< dirty rows written back on ring eviction
  u64 ring_evictions = 0;        ///< segments evicted to honor the budget
  Bytes peak_resident_bytes = 0; ///< high-water mark of pinned KV residency
};

class KvCachePolicy final : public BufferPolicy {
 public:
  explicit KvCachePolicy(const AcceleratorConfig& arch) : arch_(arch) {}

  BufferService read_tensor(const chord::TensorMeta& t) override;
  BufferService write_tensor(const chord::TensorMeta& t) override;
  void retire(i32 base_id) override;

  std::optional<std::vector<DrainItem>> drain(const DrainContext& ctx) override;

  Bytes occupancy_bytes() const override { return resident_total_; }

  void finalize(const AcceleratorConfig& arch, u64 pipeline_sram_lines,
                RunMetrics& m) const override;

  const KvCacheStats& stats() const { return stats_; }
  Bytes resident_bytes() const { return resident_total_; }

 private:
  /// One pinned run of cache rows; FIFO order in ring_ is append order.
  struct Segment {
    i32 base = -1;
    Bytes bytes = 0;
    bool dirty = false;  ///< pinned on write, not yet spilled to DRAM
  };
  /// Per-base residency bookkeeping (extent known on chip).
  struct BaseState {
    std::string name;          ///< base name, for drain attribution
    Bytes resident = 0;        ///< pinned bytes of this base
    Bytes dirty_resident = 0;  ///< pinned bytes never written to DRAM
  };

  BaseState& base_state(const chord::TensorMeta& t);
  /// Pin `bytes` of `t`'s base, FIFO-evicting to the SRAM budget.  Returns
  /// the dirty bytes the evictions spilled to DRAM.
  Bytes admit(BaseState& b, i32 base, Bytes bytes, bool dirty);

  AcceleratorConfig arch_;
  std::deque<Segment> ring_;
  std::unordered_map<i32, BaseState> bases_;
  Bytes resident_total_ = 0;
  u64 sram_lines_ = 0;  ///< staging accesses (cache rows + streamed tensors)
  KvCacheStats stats_;
};

BufferPolicyFactory kv_cache_buffer();

}  // namespace cello::sim
