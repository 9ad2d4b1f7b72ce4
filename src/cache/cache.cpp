#include "cache/cache.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "common/error.hpp"

namespace cello::cache {

namespace {

#if defined(__SSE2__)
/// An 8-way set's tag lane as two SSE2 halves (ways 0-3 and 4-7).
struct Lane8 {
  __m128i lo, hi;
  explicit Lane8(const u32* tags)
      : lo(_mm_loadu_si128(reinterpret_cast<const __m128i*>(tags))),
        hi(_mm_loadu_si128(reinterpret_cast<const __m128i*>(tags + 4))) {}
  /// Per way, 16 bits: all ones where the tag equals `needle`.
  __m128i eq16(u32 needle) const {
    const __m128i n = _mm_set1_epi32(static_cast<int>(needle));
    return _mm_packs_epi32(_mm_cmpeq_epi32(lo, n), _mm_cmpeq_epi32(hi, n));
  }
  /// Bits 0-7: the ways holding `a`; bits 8-15: the ways holding `b`.
  u32 match2(u32 a, u32 b) const {
    return static_cast<u32>(_mm_movemask_epi8(_mm_packs_epi16(eq16(a), eq16(b))));
  }
};
#endif

/// The first of a set's `ways` ways holding `needle`, or `ways` if none does.
template <u32 kWays>
inline u32 find_way(const u32* tags, u32 ways, u32 needle) {
#if defined(__SSE2__)
  if constexpr (kWays == 8) {
    const u32 m = Lane8(tags).match2(needle, needle) & 0xFF;
    return static_cast<u32>(std::countr_zero(m | 0x100u));
  }
#endif
  u32 w = 0;
  while (w < ways && tags[w] != needle) ++w;
  return w;
}

/// In a recency-ordered set: the way holding `tag`, else the first empty way,
/// else the last way.  A line never sits past the first empty way.
template <u32 kWays>
inline u32 recency_way(const u32* tags, u32 ways, u32 tag, u32 empty) {
#if defined(__SSE2__)
  if constexpr (kWays == 8) {
    const u32 m = Lane8(tags).match2(tag, empty);
    return static_cast<u32>(std::countr_zero(m | m >> 8 | 0x80u));
  }
#endif
  u32 j = 0;
  while (j + 1 < ways && tags[j] != tag && tags[j] != empty) ++j;
  return j;
}

/// Move tag ways [0, j) down by one and put `tag` at way 0.
template <u32 kWays>
inline void shift_in(u32* tags, u32 j, u32 tag) {
#if defined(__SSE2__)
  if constexpr (kWays == 8) {
    // Each half shifts up one lane: way 0 takes the tag, way 4 takes way 3.
    // Ways past j keep their tags.
    const auto [lo, hi] = Lane8(tags);
    const __m128i lo_down =
        _mm_or_si128(_mm_slli_si128(lo, 4), _mm_cvtsi32_si128(static_cast<int>(tag)));
    const __m128i hi_down = _mm_or_si128(_mm_slli_si128(hi, 4), _mm_srli_si128(lo, 12));
    if (j == 7) {  // a streaming miss: every way moves
      _mm_storeu_si128(reinterpret_cast<__m128i*>(tags), lo_down);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(tags + 4), hi_down);
      return;
    }
    const __m128i jv = _mm_set1_epi32(static_cast<int>(j));
    const __m128i keep_lo = _mm_cmpgt_epi32(_mm_setr_epi32(0, 1, 2, 3), jv);
    const __m128i keep_hi = _mm_cmpgt_epi32(_mm_setr_epi32(4, 5, 6, 7), jv);
    const auto blend = [](__m128i keep, __m128i old, __m128i down) {
      return _mm_or_si128(_mm_and_si128(keep, old), _mm_andnot_si128(keep, down));
    };
    _mm_storeu_si128(reinterpret_cast<__m128i*>(tags), blend(keep_lo, lo, lo_down));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(tags + 4), blend(keep_hi, hi, hi_down));
    return;
  }
#endif
  for (u32 i = j; i > 0; --i) tags[i] = tags[i - 1];
  tags[0] = tag;
}

[[noreturn, gnu::cold]] void throw_tag_overflow() {
  throw Error("address space too large for the cache's u32 tag lane");
}

}  // namespace

const char* to_string(Policy p) {
  switch (p) {
    case Policy::Lru: return "LRU";
    case Policy::Brrip: return "BRRIP";
  }
  return "?";
}

SetAssocCache::SetAssocCache(Bytes capacity, u32 line_bytes, u32 associativity, Policy policy)
    : capacity_(capacity), line_bytes_(line_bytes), assoc_(associativity), policy_(policy) {
  CELLO_CHECK(line_bytes_ > 0 && assoc_ > 0);
  const u64 lines = capacity_ / line_bytes_;
  CELLO_CHECK_MSG(lines % assoc_ == 0, "capacity not divisible into sets");
  sets_ = lines / assoc_;
  CELLO_CHECK(sets_ > 0);
  if (std::has_single_bit(line_bytes_))
    line_shift_ = static_cast<i32>(std::countr_zero(line_bytes_));
  if (std::has_single_bit(sets_)) {
    set_shift_ = static_cast<i32>(std::countr_zero(sets_));
    set_mask_ = sets_ - 1;
  }
  tags_.assign(sets_ * assoc_, kInvalidTag);
  meta_.assign(sets_ * assoc_, fresh_meta());
}

template <u32 kWays>
inline void SetAssocCache::touch(Walk& w, u64 set, u32 tag, bool is_write) {
  const u32 ways = kWays != 0 ? kWays : w.ways;
  u32* const tags = w.tags + set * ways;
  u8* const meta = w.meta + set * ways;
  const u8 dirty = is_write ? kDirtyBit : 0;

  if (w.lru) {
    // `j` is the hit way, or on a miss the way the fill takes: the first
    // empty way, else the last way, whose line it evicts.  The line moves to
    // way 0 and ways [0, j) shift down by one.
    const u32 j = recency_way<kWays>(tags, ways, tag, kInvalidTag);
    const bool hit = tags[j] == tag;
    if (!hit) {
      ++w.misses;
      if (tags[j] == kInvalidTag)
        ++w.empty_fills;
      else
        w.writebacks += meta[j] >> 7;
    }
    if (!hit || j != 0) shift_in<kWays>(tags, j, tag);
    if constexpr (kWays == 8) {
      u64 m;
      std::memcpy(&m, meta, 8);
      const u64 d = dirty | (hit ? (m >> (8 * j)) & kDirtyBit : 0);
      const u64 upto_j = ~0ull >> (8 * (7 - j));  // bytes 0..j
      m = (m & ~upto_j) | ((m << 8) & upto_j) | d;
      std::memcpy(meta, &m, 8);
    } else {
      const u8 d = dirty | (hit ? meta[j] & kDirtyBit : 0);
      for (u32 i = j; i > 0; --i) meta[i] = meta[i - 1];
      meta[0] = d;
    }
    return;
  }

  const u32 hit_way = find_way<kWays>(tags, ways, tag);
  if (hit_way != ways) {
    // RRPV -> 0 (near-immediate re-reference), dirty absorbed.
    meta[hit_way] = (meta[hit_way] & kDirtyBit) | dirty;
    return;
  }
  ++w.misses;
  u32 v = find_way<kWays>(tags, ways, kInvalidTag);  // first empty way
  if (v == ways) {
    // Evict the first way predicted "distant" (RRPV == 3); if none, age the
    // whole set and rescan — terminates within 3 rounds.  Aging only runs
    // when every RRPV <= 2, so the +1 never carries into the dirty bit.
    if constexpr (kWays == 8) {
      u64 m;
      std::memcpy(&m, meta, 8);
      u64 distant;
      while ((distant = m & (m >> 1) & kLane) == 0) m += kLane;  // bit 0 set where RRPV == 3
      std::memcpy(meta, &m, 8);
      v = static_cast<u32>(std::countr_zero(distant)) >> 3;
    } else {
      for (;;) {
        v = 0;
        while (v < ways && (meta[v] & kRrpvMask) != 3) ++v;
        if (v != ways) break;
        for (u32 i = 0; i < ways; ++i) ++meta[i];
      }
    }
    w.writebacks += meta[v] >> 7;
  } else {
    ++w.empty_fills;
  }
  tags[v] = tag;
  // Bimodal insertion: distant (3) most of the time, long (2) every 32nd
  // fill — a deterministic counter in place of the paper's epsilon dice.
  meta[v] = dirty | ((w.fills_before + w.misses) % 32 == 0 ? 2 : 3);
}

// Flattened so touch() inlines into the per-line loop and the Walk stays in
// registers.
template <u32 kWays>
[[gnu::flatten]] void SetAssocCache::walk_lines(u64 first_line, u64 count, bool is_write) {
  Walk w{tags_.data(), meta_.data(), assoc_, policy_ == Policy::Lru, fill_counter()};
  // Consecutive lines: sets advance round-robin, and the tag bumps on each
  // wrap (line = tag * sets + set).  Tags only grow, and access_lines()
  // checked the last one against the u32 lane.
  const u64 sets = sets_;
  u64 set = set_of_line(first_line);
  u32 tag = static_cast<u32>(tag_of_line(first_line));
  for (u64 i = 0; i < count; ++i) {
    touch<kWays>(w, set, tag, is_write);
    if (++set == sets) {
      set = 0;
      ++tag;
    }
  }
  stats_.accesses += count;
  stats_.misses += w.misses;
  stats_.evictions += w.misses - w.empty_fills;
  stats_.writebacks += w.writebacks;
}

void SetAssocCache::access_lines(u64 first_line, u64 count, bool is_write) {
  if (count == 0) return;
  // Tags only grow along the walk: checking the last line covers them all.
  if (tag_of_line(first_line + count - 1) >= kInvalidTag) throw_tag_overflow();
  if (assoc_ == 8)
    walk_lines<8>(first_line, count, is_write);
  else
    walk_lines<0>(first_line, count, is_write);
}

void SetAssocCache::access_range(Addr addr, Bytes len, bool is_write) {
  if (len == 0) return;
  const u64 first = line_of(addr);
  const u64 last = line_of(addr + len - 1);
  access_lines(first, last - first + 1, is_write);
}

void SetAssocCache::flush() {
  // Empty ways are always clean, so the drain just counts the meta lane's
  // dirty bits: a byte-sum multiply per u64 word (no popcount instruction on
  // baseline x86-64), then any tail bytes.  Resetting the meta lane keeps
  // empty ways clean.
  const size_t n = meta_.size();
  const u8* meta = meta_.data();
  u64 dirty = 0;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    u64 m;
    std::memcpy(&m, meta + i, 8);
    dirty += (((m & kHigh) >> 7) * kLane) >> 56;
  }
  for (; i < n; ++i) dirty += meta[i] >> 7;
  stats_.writebacks += dirty;
  std::fill(tags_.begin(), tags_.end(), kInvalidTag);
  std::fill(meta_.begin(), meta_.end(), fresh_meta());
}

u64 SetAssocCache::valid_lines() const {
  return static_cast<u64>(
      std::count_if(tags_.begin(), tags_.end(), [](u32 tag) { return tag != kInvalidTag; }));
}

bool SetAssocCache::contains_line(u64 line) const {
  const u64 tag = tag_of_line(line);
  if (tag >= kInvalidTag) return false;
  const u32* tags = &tags_[set_of_line(line) * assoc_];
  return std::find(tags, tags + assoc_, static_cast<u32>(tag)) != tags + assoc_;
}

}  // namespace cello::cache
