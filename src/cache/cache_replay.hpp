// StreamReplayer: the replay half of the capture/replay split.
//
// Consumes a pre-captured access-span view (see sim::AccessStream) and drives
// one SetAssocCache to the exact state + stats the equivalent sequence of
// access_range calls would produce, while converting span traffic back into
// per-scheduled-op DRAM service totals and line fills at the recorded op
// boundaries.
//
// Two engines, selected per cache geometry at construction:
//  * compact: the default 8-way power-of-two geometry on AVX-512 hosts runs a
//    u8 tag lane + one u64 meta lane per set, 8 sets per masked 512-bit
//    group (see cache_simd512.cpp).  The kernel keeps its counters in
//    registers and folds them in once per replayed op, and full LRU groups
//    of a steady sequential sweep (every set full, none holding the line)
//    take a one-shift path.  On the LLM decode stream of BM_ReplayStreamLlm
//    (4-core AVX-512 VM) that is ~0.6 ns per line under LRU and ~1.8 ns
//    under BRRIP, against 7.5-10 ns in the direct engine.
//    Tags are rebased against the stream's address window so they fit the
//    byte lane; write_back() widens them back into the cache's u32 tag lane
//    and copies the meta lane as is.
//  * direct: every other geometry (or CELLO_DISABLE_AVX512=1) feeds the spans
//    through the cache's public access_range — trivially bit-identical.
//
// Periodic fast-forward: iterative workloads repeat the same span block per
// iteration (AccessStream detects this at capture).  After each occurrence
// the replayer compares the replacement state with the one the occurrence
// started from; once an occurrence leaves it unchanged (a fixed point) the
// remaining occurrences are pure arithmetic — stats advance by that
// occurrence's delta times the skipped count and per-op services copy.  Both
// engines fast-forward (the direct engine for the 8-way layout); this, not
// raw line throughput, is where the order-of-magnitude sweep speedups on
// CG-style workloads come from.  The check is a raw compare of the tag and
// meta lanes for both policies: 8-way LRU sets are stored in recency order
// with empty ways last, which is already the canonical form of an LRU state
// (LRU outcomes do not depend on which way holds a line), so a converged
// LRU state repeats byte for byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cache/cache.hpp"

namespace cello::cache {

/// Borrowed struct-of-arrays view of a captured stream (sim::AccessStream
/// provides one; the cache layer stays independent of sim).
struct ReplaySpans {
  const Addr* addr = nullptr;
  const u32* len = nullptr;
  const u8* write = nullptr;
  const u32* op_end = nullptr;  ///< per materialized step: exclusive span index
  u64 prefix_steps = 0;
  u64 period_steps = 0;   ///< 0 = linear stream
  u64 period_count = 0;
  u64 suffix_steps = 0;
  u64 schedule_steps = 0; ///< prefix + period * count + suffix
  Addr min_addr = 0;
  Addr max_addr = 0;
};

/// Per-scheduled-op DRAM traffic the replayed spans incurred, plus the lines
/// the op newly made valid (misses - evictions: every eviction makes room for
/// a miss of the same op, and nothing invalidates mid-stream, so the running
/// sum over ops is the cache's valid-line count).
struct ReplayService {
  Bytes dram_read = 0;
  Bytes dram_write = 0;
  u64 fills = 0;
};

namespace detail {

/// Compact-engine counters; expanded into CacheStats by current_stats()
/// (accesses, tag lookups and data accesses all equal the walked line count).
/// The kernel counts misses, evictions and writebacks and derives the rest.
struct CompactStats {
  u64 lines = 0;
  u64 hits = 0;
  u64 misses = 0;
  u64 evictions = 0;
  u64 writebacks = 0;
  Bytes dram_read = 0;
  Bytes dram_write = 0;
};

/// Compact replacement state: one u8 tag (0xFF = invalid) and one aux byte
/// per way, set-major — 16 bytes per set, L2-resident for multi-MiB caches.
/// Both lanes use SetAssocCache's 8-way layout: LRU ways in recency order
/// (way 0 = MRU, empty ways last), and aux bytes equal to its meta bytes
/// (dirty in 0x80, plus the RRPV in bits 0..1 under BRRIP).  Each lane starts
/// at the first 64-byte boundary of its vector (allocated with that much
/// slack), so a group that starts at a multiple of 8 sets is one aligned
/// 64-byte line.
struct CompactState {
  u64 sets = 0;
  u64 set_mask = 0;
  i32 set_shift = 0;
  i32 line_shift = 0;
  u32 line_bytes = 0;
  u32 base_tag = 0;  ///< tags stored rebased: tag8 = (line >> set_shift) - base_tag
  Policy policy = Policy::Lru;
  std::vector<u8> tags;
  std::vector<u64> aux;
  CompactStats s;

  u8* tag_lane() { return align64(tags.data()); }
  const u8* tag_lane() const { return align64(tags.data()); }
  u64* aux_lane() { return align64(aux.data()); }
  const u64* aux_lane() const { return align64(aux.data()); }
  /// BRRIP's bimodal fill counter bumps once per miss (and never under LRU).
  u64 fill_counter() const { return policy == Policy::Brrip ? s.misses : 0; }

 private:
  template <typename T>
  static T* align64(T* p) {
    return reinterpret_cast<T*>((reinterpret_cast<std::uintptr_t>(p) + 63) & ~std::uintptr_t{63});
  }
};

/// True when this host can run the AVX-512 group kernels (compiled in,
/// CPU-supported, not disabled via CELLO_DISABLE_AVX512).
bool avx512_runtime();

/// Run spans [begin, end) through the compact state (cache_simd512.cpp).
void replay_spans_avx512(CompactState& st, const Addr* addr, const u32* len, const u8* write,
                         size_t begin, size_t end);

}  // namespace detail

class StreamReplayer {
 public:
  /// Binds one cache (which must be in freshly-reset state) to one span view.
  /// The view must outlive the replayer.
  StreamReplayer(SetAssocCache& cache, const ReplaySpans& spans);

  /// Replay the whole stream (prefix, every occurrence, suffix) and leave the
  /// cache in its final state; services.size() == schedule_steps afterwards.
  void run(std::vector<ReplayService>& services);

  /// Period occurrences run() actually replayed before fast-forwarding the
  /// rest (all of them when the state never reached a fixed point).
  u64 occurrences_replayed() const { return occurrences_replayed_; }

 private:
  /// Replay the spans of materialized steps [step_begin, step_end), recording
  /// one service per step into `out` (contiguous).
  void run_steps(size_t step_begin, size_t step_end, ReplayService* out);
  /// Overwrite `blob` with the replacement state; true when that equals
  /// what it held (the state one occurrence earlier).
  bool update_snapshot(std::vector<u8>& blob) const;
  /// The state is a fixed point of the period: advance stats (and the BRRIP
  /// counter) over `remaining` occurrences of `per_occurrence` each.
  void fast_forward(u64 remaining, const CacheStats& per_occurrence);
  /// Write compact state + stats back into the cache's own lanes.
  void write_back();
  CacheStats current_stats() const;
  void set_stats(const CacheStats& st);

  SetAssocCache& cache_;
  const ReplaySpans& spans_;
  bool compact_ = false;      ///< AVX-512 compact engine active
  bool can_fast_forward_ = false;  ///< snapshot/compare supported for this geometry
  u64 occurrences_replayed_ = 0;
  detail::CompactState state_;
};

}  // namespace cello::cache
