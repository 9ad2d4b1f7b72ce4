// Set-associative cache simulator with LRU and BRRIP replacement — the
// implicit-buffer baselines of Table IV (Flex+LRU, Flex+BRRIP).
//
// Write-allocate, write-back.  Every access pays an associativity-wide tag
// lookup (priced per access in the Fig. 15 energy comparison); misses fill a
// line from DRAM and dirty evictions write one back.  CacheStats counts four
// events (accesses, misses, evictions, writebacks); hits and DRAM bytes
// derive from them.
//
// One struct-of-arrays layout serves every associativity, compact enough to
// stay resident in the host L2 even for multi-MiB simulated caches:
//  * a u32 tag lane, with validity folded in as a sentinel;
//  * a byte lane beside it, one byte per way: the dirty bit, plus the 2-bit
//    RRPV under BRRIP;
//  * LRU sets kept in recency order: way 0 is the MRU, the last way the LRU,
//    and empty ways come last.  A hit or fill at way j shifts ways [0, j) down
//    by one (dirty bytes travel with their tags) and writes the line at way
//    0; the victim is always the last way.  LRU outcomes do not depend on
//    which way holds a line (the stack property), so this is the canonical
//    form of an LRU state, and the stream replayer's fixed-point check and the
//    drain are flat scans;
//  * BRRIP ways stay in place: a fill takes the first empty way (so empty
//    ways come last here too), else the first distant way after aging.
// One touch routine runs every access.  Its 8-way instance (the Table V
// geometry) probes and shifts the tag lane with SSE2, which every x86-64 CPU
// has, and shifts or ages the meta lane as SWAR over one u64; every other
// associativity, and the 8-way one on hosts without SSE2, runs the same
// routine's per-way loops.  access_lines() walks consecutive lines by
// stepping the (set, tag) pair instead of re-decomposing each address, keeps
// the walk's event counters in locals and folds them into the stats once per
// walk, and prefetch_range() lets the stream replayer hide metadata latency
// for irregular accesses (SpMM gathers).  Power-of-two line sizes and set
// counts use shift/mask addressing, and a division fallback covers every
// other geometry.
#pragma once

#include <vector>

#include "common/types.hpp"

namespace cello::cache {

enum class Policy {
  Lru,
  Brrip,  ///< bimodal RRIP (Jaleel et al.): 2-bit RRPV, mostly-distant insert
};

const char* to_string(Policy p);

class StreamReplayer;

/// The four events the cache counts; everything else derives from them.
/// Every access reads one associativity-wide tag set and one data line (the
/// Fig. 15 energy terms), every miss reads one line from DRAM and every
/// writeback writes one (SetAssocCache::traffic_since prices both).
struct CacheStats {
  u64 accesses = 0;
  u64 misses = 0;
  u64 evictions = 0;   ///< misses that displaced a valid line
  u64 writebacks = 0;  ///< dirty lines written to DRAM, by eviction or flush

  u64 hits() const { return accesses - misses; }
  double hit_rate() const {
    return accesses == 0 ? 0.0 : static_cast<double>(hits()) / static_cast<double>(accesses);
  }
};

/// DRAM traffic incurred by one serviced access, or by one replayed schedule
/// step of a trace-driven cache.
struct BufferService {
  Bytes dram_read = 0;
  Bytes dram_write = 0;
  /// Trace-driven replay only: cache lines the step newly made valid (misses -
  /// evictions).  The cache never invalidates mid-run, so the running sum is
  /// its valid-line count — what a traced run samples as occupancy.
  u64 fills = 0;

  Bytes total() const { return dram_read + dram_write; }
};

class SetAssocCache {
 public:
  SetAssocCache(Bytes capacity, u32 line_bytes, u32 associativity, Policy policy);

  /// One word/line-granule access; the cache operates on aligned lines.
  void access(Addr addr, bool is_write) { access_lines(line_of(addr), 1, is_write); }
  /// Access every line overlapping [addr, addr+len).
  void access_range(Addr addr, Bytes len, bool is_write);

  // ---- line-granularity API (what trace-driven policies use) ---------------
  /// The line index covering `addr`.
  u64 line_of(Addr addr) const {
    return line_shift_ >= 0 ? addr >> line_shift_ : addr / line_bytes_;
  }
  /// Access `count` consecutive lines starting at `first_line`, walking the
  /// (set, tag) pair and coalescing the stats updates into one bump.
  void access_lines(u64 first_line, u64 count, bool is_write);
  /// Hint that [addr, addr+len) is about to be accessed: pulls the covering
  /// sets' tag + meta lanes toward the host caches.  No simulated effect.
  void prefetch_range(Addr addr, Bytes len) const {
#if defined(__GNUC__) || defined(__clang__)
    if (len == 0) return;
    const u64 first_set = set_of_line(line_of(addr));
    const u64 last_set = set_of_line(line_of(addr + len - 1));
    __builtin_prefetch(&tags_[first_set * assoc_], 1, 1);
    if (last_set != first_set) __builtin_prefetch(&tags_[last_set * assoc_], 1, 1);
    __builtin_prefetch(&meta_[first_set * assoc_], 1, 1);
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
  /// DRAM traffic and line fills since `before`, an earlier stats() of this
  /// cache: each miss reads one line and each writeback writes one.
  BufferService traffic_since(const CacheStats& before) const {
    return {(stats_.misses - before.misses) * line_bytes_,
            (stats_.writebacks - before.writebacks) * line_bytes_,
            (stats_.misses - stats_.evictions) - (before.misses - before.evictions)};
  }
  /// Every byte moved to or from DRAM so far.
  Bytes dram_bytes() const { return traffic_since({}).total(); }

  u32 line_bytes() const { return line_bytes_; }
  u64 num_sets() const { return sets_; }
  u32 associativity() const { return assoc_; }

 private:
  /// The stream replayer (cache_replay.cpp) reproduces this cache's exact
  /// replacement state from a captured access stream: it reads and writes the
  /// lanes directly so snapshots, fast-forward restores, and the compact
  /// AVX-512 engine's final write-back stay bit-identical to direct access.
  friend class StreamReplayer;

  /// Tag-lane sentinel for an empty way.  Tags are stored as u32, and every
  /// walk checks the bound: a simulated footprint would need to exceed
  /// line_bytes * sets * 2^32 bytes (petabytes for any real geometry) to
  /// collide.
  static constexpr u32 kInvalidTag = ~0u;
  // meta_ byte layout: bit 7 = dirty; bits 0..1 = RRPV (BRRIP only).  An
  // empty way is always clean: fills set the bit, flush() clears it.
  static constexpr u8 kDirtyBit = 0x80;
  static constexpr u8 kRrpvMask = 0x03;
  static constexpr u64 kLane = 0x0101010101010101ull;   ///< 1 in every byte
  static constexpr u64 kHigh = 0x8080808080808080ull;   ///< bit 7 of every byte

  /// A fresh way's meta byte: clean, and RRPV distant under BRRIP.
  u8 fresh_meta() const { return policy_ == Policy::Lru ? 0 : 3; }
  /// BRRIP's bimodal fill counter: it bumps once per miss, and never under
  /// LRU, so the stats carry it.
  u64 fill_counter() const { return policy_ == Policy::Brrip ? stats_.misses : 0; }

  u64 set_of_line(u64 line) const { return set_shift_ >= 0 ? line & set_mask_ : line % sets_; }
  u64 tag_of_line(u64 line) const { return set_shift_ >= 0 ? line >> set_shift_ : line / sets_; }

  /// One walk's view of the lanes and its event counters, held in locals so
  /// the lane stores cannot alias them; walk_lines() folds the counters into
  /// stats_ once per walk.  Every miss evicts except a fill of an empty way,
  /// so those fills are counted instead of the (far more frequent) evictions.
  struct Walk {
    u32* tags;
    u8* meta;
    u32 ways;
    bool lru;
    u64 fills_before;  ///< BRRIP fill counter at the start of the walk
    u64 misses = 0;
    u64 empty_fills = 0;
    u64 writebacks = 0;
  };
  /// One access to `tag` in `set`.  kWays is the associativity the routine
  /// is compiled for: 8 (the Table V geometry, with SSE2 probes and SWAR
  /// meta updates) or 0, meaning `w.ways`.
  template <u32 kWays>
  static void touch(Walk& w, u64 set, u32 tag, bool is_write);
  template <u32 kWays>
  void walk_lines(u64 first_line, u64 count, bool is_write);

  Bytes capacity_;
  u32 line_bytes_;
  u32 assoc_;
  u64 sets_;
  Policy policy_;
  i32 line_shift_ = -1;  ///< log2(line_bytes) when a power of two, else -1
  i32 set_shift_ = -1;   ///< log2(sets) when a power of two, else -1
  u64 set_mask_ = 0;
  // Set-major state, assoc_ ways per set.
  std::vector<u32> tags_;  ///< kInvalidTag = empty way
  std::vector<u8> meta_;   ///< dirty | RRPV
  CacheStats stats_;
};

}  // namespace cello::cache
