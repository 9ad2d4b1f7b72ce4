// Set-associative cache simulator with LRU and BRRIP replacement — the
// implicit-buffer baselines of Table IV (Flex+LRU, Flex+BRRIP).
//
// Write-allocate, write-back.  Every access pays an associativity-wide tag
// lookup (tracked for the Fig. 15 energy comparison); misses fill a line from
// DRAM and dirty evictions write one back.
//
// The hot path is engineered for trace-driven throughput while staying
// bit-identical to the straightforward model.  The default 8-way geometry
// runs a compact struct-of-arrays layout sized to stay resident in the host
// L2 even for multi-MiB simulated caches:
//  * a u32 tag lane (validity folded in as a sentinel) — one 32-byte vector
//    compare probes the whole set on AVX2 hosts (runtime dispatch, see
//    cache_simd.cpp), a scalar early-exit scan elsewhere;
//  * a byte lane beside it, one byte per way: the dirty bit, plus the 2-bit
//    RRPV under BRRIP (victim search and aging are SWAR over one u64);
//  * LRU sets kept in recency order: way 0 is the MRU, way 7 the LRU, and
//    empty ways come last.  A hit or fill at way j shifts ways [0, j) down by
//    one (dirty bytes travel with their tags) and writes the line at way 0;
//    the victim is always way 7.  The state is canonical by construction, so
//    the stream replayer's fixed-point check and the drain are flat scans;
//  * access_lines() walks consecutive lines by stepping the (set, tag) pair
//    instead of re-decomposing each address, coalesces the per-access stats
//    bumps into one update per run, and prefetch_range() lets the stream
//    replayer hide metadata latency for irregular accesses (SpMM gathers).
// Power-of-two line sizes and set counts use shift/mask addressing, and a
// division/u64 fallback path covers every other geometry.
//
// Every layout and dispatch target makes identical replacement decisions, so
// stats and metrics do not depend on the host CPU (set CELLO_DISABLE_AVX2=1
// to force the scalar probe; tests assert the paths agree).
#pragma once

#include <bit>
#include <cstring>
#include <vector>

#include "common/types.hpp"

namespace cello::cache {

enum class Policy {
  Lru,
  Brrip,  ///< bimodal RRIP (Jaleel et al.): 2-bit RRPV, mostly-distant insert
};

const char* to_string(Policy p);

class StreamReplayer;

struct CacheStats {
  u64 accesses = 0;
  u64 hits = 0;
  u64 misses = 0;
  u64 evictions = 0;
  u64 writebacks = 0;
  Bytes dram_read_bytes = 0;
  Bytes dram_write_bytes = 0;
  u64 tag_lookups = 0;  ///< one per access (reads `assoc` tags in parallel)
  u64 data_accesses = 0;

  Bytes dram_bytes() const { return dram_read_bytes + dram_write_bytes; }
  double hit_rate() const {
    return accesses == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(accesses);
  }
};

class SetAssocCache {
 public:
  SetAssocCache(Bytes capacity, u32 line_bytes, u32 associativity, Policy policy);

  /// One word/line-granule access; the cache operates on aligned lines.
  void access(Addr addr, bool is_write);
  /// Access every line overlapping [addr, addr+len).
  void access_range(Addr addr, Bytes len, bool is_write);

  // ---- line-granularity API (what trace-driven policies use) ---------------
  /// The line index covering `addr`.
  u64 line_of(Addr addr) const {
    return line_shift_ >= 0 ? addr >> line_shift_ : addr / line_bytes_;
  }
  /// One access to line `line` (== access(line * line_bytes, w)).
  void access_line(u64 line, bool is_write);
  /// Access `count` consecutive lines starting at `first_line`, walking the
  /// (set, tag) pair and coalescing the stats updates into one bump.
  void access_lines(u64 first_line, u64 count, bool is_write);
  /// Hint that [addr, addr+len) is about to be accessed: pulls the covering
  /// sets' tag + meta lanes toward the host caches.  No simulated effect.
  void prefetch_range(Addr addr, Bytes len) const {
#if defined(__GNUC__) || defined(__clang__)
    if (len == 0 || !fast8_) return;
    const u64 first_set = set_of_line(line_of(addr));
    const u64 last_set = set_of_line(line_of(addr + len - 1));
    __builtin_prefetch(&tags32_[first_set * 8], 1, 1);
    if (last_set != first_set) __builtin_prefetch(&tags32_[last_set * 8], 1, 1);
    __builtin_prefetch(&meta_[first_set * 8], 1, 1);
#else
    (void)addr;
    (void)len;
#endif
  }

  /// Write back all dirty lines (end-of-run drain) and invalidate.
  void flush();

  bool contains(Addr addr) const { return contains_line(line_of(addr)); }
  bool contains_line(u64 line) const;
  /// Lines currently holding valid data — an on-demand tag-lane scan, meant
  /// for occupancy observability (BufferPolicy::occupancy_bytes), not the
  /// replay hot path.
  u64 valid_lines() const;
  const CacheStats& stats() const { return stats_; }

  u32 line_bytes() const { return line_bytes_; }
  u64 num_sets() const { return sets_; }
  u32 associativity() const { return assoc_; }

 private:
  /// The stream replayer (cache_replay.cpp) reproduces this cache's exact
  /// replacement state from a captured access stream: it reads and writes the
  /// lanes directly so snapshots, fast-forward restores, and the compact
  /// AVX-512 engine's final write-back stay bit-identical to direct access.
  friend class StreamReplayer;

  /// Tag-lane sentinels for an empty way.  The 8-way fast path stores tags
  /// as u32 and checks the bound per access: a simulated footprint would
  /// need to exceed line_bytes * sets * 2^32 bytes (petabytes for any real
  /// geometry) to collide.
  static constexpr u64 kInvalidTag = ~0ull;
  static constexpr u32 kInvalidTag32 = ~0u;
  // meta_ byte layout: bit 7 = dirty; bits 0..1 = RRPV (BRRIP only).  An
  // 8-way empty way is always clean: fills set the bit, flush() clears it.
  static constexpr u8 kDirtyBit = 0x80;
  static constexpr u8 kRrpvMask = 0x03;
  static constexpr u64 kLane = 0x0101010101010101ull;   ///< 1 in every byte
  static constexpr u64 kHigh = 0x8080808080808080ull;   ///< bit 7 of every byte

  /// A fresh way's meta byte: clean, and RRPV distant under BRRIP.
  u8 fresh_meta() const { return policy_ == Policy::Lru ? 0 : 3; }

  u64 set_of_line(u64 line) const { return set_shift_ >= 0 ? line & set_mask_ : line % sets_; }
  u64 tag_of_line(u64 line) const { return set_shift_ >= 0 ? line >> set_shift_ : line / sets_; }

  // The per-line state machines: return true on hit.  They bump the
  // per-event stats (misses, evictions, writebacks, DRAM bytes) immediately —
  // policies read DRAM deltas mid-run — but leave accesses/hits/tag_lookups/
  // data_accesses to the caller, which coalesces them over a whole run.
  bool touch_line_generic(u64 set, u64 tag, bool is_write);  ///< any associativity
  bool touch_line8(u64 set, u64 tag, bool is_write);         ///< 8-way, scalar probe
  size_t victim_in_set_generic(u64 set);

  // AVX2 twins, defined in cache_simd.cpp (built only when the compiler
  // supports -mavx2; selected at runtime when the CPU does too).
  bool touch_line8_simd(u64 set, u64 tag, bool is_write);
  void access_lines_simd(u64 first_line, u64 count, bool is_write);

  /// Walk `count` consecutive lines, calling touch(set, tag) for each and
  /// returning the number of hits.  The single home of the wrap logic —
  /// every access_lines variant (scalar fast8/generic, AVX2) walks through
  /// here so the bit-identity-critical stepping cannot drift between them.
  template <typename TouchFn>
  u64 walk_lines(u64 first_line, u64 count, TouchFn&& touch) {
    u64 hits = 0;
    if (set_shift_ >= 0) {
      // Power-of-two sets: branch-free (set, tag) from the running line.
      for (u64 line = first_line; line < first_line + count; ++line)
        hits += touch(line & set_mask_, line >> set_shift_) ? 1 : 0;
    } else {
      u64 set = set_of_line(first_line);
      u64 tag = tag_of_line(first_line);
      for (u64 i = 0; i < count; ++i) {
        hits += touch(set, tag) ? 1 : 0;
        // The next consecutive line: sets advance round-robin; the tag
        // bumps on each wrap (line = tag * sets + set).
        if (++set == sets_) {
          set = 0;
          ++tag;
        }
      }
    }
    return hits;
  }

  /// One 8-way LRU access, shared by the scalar and AVX2 probes.  `j` is
  /// the hit way, or on a miss the way the fill takes: the first empty way,
  /// else way 7, whose line it evicts.  The line moves to way 0 and ways
  /// [0, j) shift down by one; `shift_tags()` does that on the tag lane
  /// (skipped when a hit is already at way 0), the meta lane shifts here
  /// with one u64 read-modify-write.  Returns `hit`.
  template <typename ShiftTags>
  bool lru_access8(u64 set, u32 j, bool hit, bool is_write, ShiftTags&& shift_tags) {
    u64 m;
    std::memcpy(&m, &meta_[set * 8], 8);
    u64 dirty = is_write ? kDirtyBit : 0;
    if (hit) {
      dirty |= (m >> (8 * j)) & kDirtyBit;
    } else {
      ++stats_.misses;
      stats_.dram_read_bytes += line_bytes_;
      if (j == 7 && tags32_[set * 8 + 7] != kInvalidTag32) {
        ++stats_.evictions;
        if (m >> 63) {
          ++stats_.writebacks;
          stats_.dram_write_bytes += line_bytes_;
        }
      }
    }
    if (!hit || j != 0) shift_tags();
    const u64 upto_j = ~0ull >> (8 * (7 - j));  // bytes 0..j
    m = (m & ~upto_j) | ((m << 8) & upto_j) | dirty;
    std::memcpy(&meta_[set * 8], &m, 8);
    return hit;
  }

  /// BRRIP victim among 8 valid ways (no empty way in the set).  Defined
  /// inline so both the scalar and the AVX2 translation units fold it into
  /// their miss paths.
  size_t victim_full_set8(u64 set) {
    // Evict the first way predicted "distant" (RRPV==3); if none, age
    // the whole set and rescan — terminates within 3 rounds.  SWAR over the
    // packed meta lane; aging only runs when every RRPV <= 2, so the
    // per-byte +1 never carries into the dirty bit or a neighboring lane.
    u64 m;
    std::memcpy(&m, &meta_[set * 8], 8);
    size_t v;
    for (;;) {
      const u64 distant = m & (m >> 1) & kLane;  // bit0 set where RRPV == 3
      if (distant != 0) {
        v = static_cast<size_t>(std::countr_zero(distant)) >> 3;
        break;
      }
      m += kLane;
    }
    std::memcpy(&meta_[set * 8], &m, 8);
    return v;
  }

  /// Shared 8-way BRRIP hit bookkeeping (way `w` of `set` matched).
  void hit_update8(u64 set, u32 w, bool is_write) {
    // RRPV -> 0 (near-immediate re-reference), dirty absorbed.
    u8& m = meta_[set * 8 + w];
    m = (m & kDirtyBit) | (is_write ? kDirtyBit : 0);
  }

  /// Shared 8-way BRRIP miss tail: pick a victim (first way of
  /// `invalid_mask` if any), account the eviction, install the new tag.
  /// Returns the way used.
  u32 fill8(u64 set, u64 tag32, u32 invalid_mask, bool is_write) {
    const size_t base = set * 8;
    ++stats_.misses;
    stats_.dram_read_bytes += line_bytes_;
    size_t v;
    if (invalid_mask != 0) {
      v = static_cast<size_t>(std::countr_zero(invalid_mask));  // first empty way
    } else {
      v = victim_full_set8(set);
      ++stats_.evictions;
      if (meta_[base + v] & kDirtyBit) {
        ++stats_.writebacks;
        stats_.dram_write_bytes += line_bytes_;
      }
    }
    tags32_[base + v] = static_cast<u32>(tag32);
    // Bimodal insertion: distant (3) most of the time, long (2) every 32nd
    // fill — deterministic counter in place of the paper's epsilon dice.
    const u8 rrpv = (++brrip_insert_counter_ % 32 == 0) ? 2 : 3;
    meta_[base + v] = (is_write ? kDirtyBit : 0) | rrpv;
    return static_cast<u32>(v);
  }

  /// The 8-way layout stores u32 tags; enforce the (petabyte-scale) bound.
  /// Out-of-line so the cold throw machinery never bloats the touch loops —
  /// callers check once per walk (tags only grow along a line walk).
  void check_tag32(u64 tag) const;

  Bytes capacity_;
  u32 line_bytes_;
  u32 assoc_;
  u64 sets_;
  Policy policy_;
  bool fast8_ = false;   ///< assoc == 8: compact layout + branchless victims
  bool simd_ = false;    ///< fast8 + compiled-in + CPU-supported AVX2 probe
  i32 line_shift_ = -1;  ///< log2(line_bytes) when a power of two, else -1
  i32 set_shift_ = -1;   ///< log2(sets) when a power of two, else -1
  u64 set_mask_ = 0;
  // Set-major state.  The 8-way fast path uses {tags32_, meta_}; every other
  // associativity uses {tags_, meta_, lru_stamp_}.
  std::vector<u32> tags32_;     ///< fast8: kInvalidTag32 = empty way
  std::vector<u64> tags_;       ///< generic: kInvalidTag = empty way
  std::vector<u8> meta_;        ///< dirty | RRPV, sets_ * assoc_
  std::vector<u64> lru_stamp_;  ///< generic LRU: per-way recency clock
  /// Scalar BRRIP and generic probes: per set, the way of the last hit/fill.
  std::vector<u32> mru_way_;
  CacheStats stats_;
  u64 clock_ = 0;
  u64 brrip_insert_counter_ = 0;
};

}  // namespace cello::cache
