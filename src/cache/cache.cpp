#include "cache/cache.hpp"

#include <algorithm>
#include <cstdlib>

#include "common/error.hpp"

namespace cello::cache {

namespace {

bool avx2_disabled_by_env() {
  const char* e = std::getenv("CELLO_DISABLE_AVX2");
  return e != nullptr && *e != '\0' && *e != '0';
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
  fast8_ = assoc_ == 8;
#if defined(CELLO_HAVE_AVX2)
  simd_ = fast8_ && __builtin_cpu_supports("avx2") && !avx2_disabled_by_env();
#else
  (void)avx2_disabled_by_env;
#endif
  if (std::has_single_bit(line_bytes_))
    line_shift_ = static_cast<i32>(std::countr_zero(line_bytes_));
  if (std::has_single_bit(sets_)) {
    set_shift_ = static_cast<i32>(std::countr_zero(sets_));
    set_mask_ = sets_ - 1;
  }
  const bool lru = policy_ == Policy::Lru;
  if (fast8_) {
    tags32_.assign(sets_ * assoc_, kInvalidTag32);
  } else {
    tags_.assign(sets_ * assoc_, kInvalidTag);
    if (lru) lru_stamp_.assign(sets_ * assoc_, 0);
  }
  meta_.assign(sets_ * assoc_, fresh_meta());
  mru_way_.assign(fast8_ && lru ? 0 : sets_, 0);
}

// ---- generic path: any associativity ---------------------------------------

size_t SetAssocCache::victim_in_set_generic(u64 set) {
  const u64* tags = &tags_[set * assoc_];
  // Invalid way first.
  for (u32 w = 0; w < assoc_; ++w)
    if (tags[w] == kInvalidTag) return w;

  if (policy_ == Policy::Lru) {
    const u64* stamps = &lru_stamp_[set * assoc_];
    size_t victim = 0;
    for (u32 w = 1; w < assoc_; ++w)
      if (stamps[w] < stamps[victim]) victim = w;
    return victim;
  }
  // BRRIP: evict the first way predicted "distant" (RRPV==3); if none, age
  // the whole set and rescan — guaranteed to terminate within 3 rounds.
  u8* meta = &meta_[set * assoc_];
  for (;;) {
    for (u32 w = 0; w < assoc_; ++w)
      if ((meta[w] & kRrpvMask) == 3) return w;
    for (u32 w = 0; w < assoc_; ++w) ++meta[w];
  }
}

bool SetAssocCache::touch_line_generic(u64 set, u64 tag, bool is_write) {
  ++clock_;
  const size_t base = set * assoc_;
  u64* tags = &tags_[base];
  const u8 dirty = is_write ? kDirtyBit : 0;

  // MRU probe first, then the associativity-wide scan: a tag lives in at
  // most one way, so the probe order cannot change the hit/miss outcome.
  // (A tag match implies validity: empty ways hold kInvalidTag.)
  u32 w = mru_way_[set];
  if (tags[w] != tag) {
    u32 found = assoc_;
    for (u32 i = 0; i < assoc_; ++i)
      if (tags[i] == tag) {
        found = i;
        break;
      }
    if (found == assoc_) {
      // Miss: allocate (write-allocate for stores too).
      ++stats_.misses;
      stats_.dram_read_bytes += line_bytes_;
      const size_t v = victim_in_set_generic(set);
      if (tags[v] != kInvalidTag) {
        ++stats_.evictions;
        if (meta_[base + v] & kDirtyBit) {
          ++stats_.writebacks;
          stats_.dram_write_bytes += line_bytes_;
        }
      }
      u8 rrpv = 2;
      if (policy_ == Policy::Brrip) {
        // Bimodal insertion: distant (3) most of the time, long (2) every
        // 32nd fill — deterministic counter in place of the paper's epsilon
        // dice.
        rrpv = (++brrip_insert_counter_ % 32 == 0) ? 2 : 3;
      } else {
        lru_stamp_[base + v] = clock_;
      }
      tags[v] = tag;
      meta_[base + v] = dirty | rrpv;
      mru_way_[set] = static_cast<u32>(v);
      return false;
    }
    w = found;
    mru_way_[set] = w;
  }

  // Hit: refresh recency, predict near-immediate re-reference, absorb write.
  if (policy_ == Policy::Lru) lru_stamp_[base + w] = clock_;
  meta_[base + w] = (meta_[base + w] & kDirtyBit) | dirty;
  return true;
}

void SetAssocCache::check_tag32(u64 tag) const {
  CELLO_CHECK_MSG(tag < kInvalidTag32,
                  "address space too large for the compact 8-way tag lane");
}

// ---- 8-way fast path, scalar probe -----------------------------------------

bool SetAssocCache::touch_line8(u64 set, u64 tag, bool is_write) {
  const u32 tag32 = static_cast<u32>(tag);
  u32* tags = &tags32_[set * 8];
  if (policy_ == Policy::Lru) {
    // Recency order: scan from the MRU way; the line cannot sit past the
    // first empty way, which is also where a miss fills (else way 7).
    u32 j = 0;
    while (j < 7 && tags[j] != tag32 && tags[j] != kInvalidTag32) ++j;
    return lru_access8(set, j, tags[j] == tag32, is_write, [&] {
      for (u32 i = j; i > 0; --i) tags[i] = tags[i - 1];
      tags[0] = tag32;
    });
  }

  u32 w = mru_way_[set];
  if (tags[w] != tag32) {
    u32 found = 8;
    for (u32 i = 0; i < 8; ++i)
      if (tags[i] == tag32) {
        found = i;
        break;
      }
    if (found == 8) {
      u32 invalid = 0;
      for (u32 i = 0; i < 8; ++i)
        if (tags[i] == kInvalidTag32) {
          invalid = 1u << i;
          break;
        }
      mru_way_[set] = fill8(set, tag32, invalid, is_write);
      return false;
    }
    w = found;
    mru_way_[set] = w;
  }
  hit_update8(set, w, is_write);
  return true;
}

// ---- public access API ------------------------------------------------------

void SetAssocCache::access(Addr addr, bool is_write) { access_line(line_of(addr), is_write); }

void SetAssocCache::access_line(u64 line, bool is_write) {
  ++stats_.accesses;
  ++stats_.tag_lookups;
  ++stats_.data_accesses;
  const u64 set = set_of_line(line);
  const u64 tag = tag_of_line(line);
  if (fast8_) check_tag32(tag);
  bool hit;
#if defined(CELLO_HAVE_AVX2)
  if (simd_)
    hit = touch_line8_simd(set, tag, is_write);
  else
#endif
    hit = fast8_ ? touch_line8(set, tag, is_write) : touch_line_generic(set, tag, is_write);
  if (hit) ++stats_.hits;
}

void SetAssocCache::access_lines(u64 first_line, u64 count, bool is_write) {
  if (count == 0) return;
  // Tags only grow along the walk: checking the last line covers them all.
  if (fast8_) check_tag32(tag_of_line(first_line + count - 1));
#if defined(CELLO_HAVE_AVX2)
  if (simd_) {
    access_lines_simd(first_line, count, is_write);
    return;
  }
#endif
  stats_.accesses += count;
  stats_.tag_lookups += count;
  stats_.data_accesses += count;

  if (fast8_)
    stats_.hits += walk_lines(first_line, count, [&](u64 set, u64 tag) {
      return touch_line8(set, tag, is_write);
    });
  else
    stats_.hits += walk_lines(first_line, count, [&](u64 set, u64 tag) {
      return touch_line_generic(set, tag, is_write);
    });
}

void SetAssocCache::access_range(Addr addr, Bytes len, bool is_write) {
  if (len == 0) return;
  const u64 first = line_of(addr);
  const u64 last = line_of(addr + len - 1);
  access_lines(first, last - first + 1, is_write);
}

void SetAssocCache::flush() {
  u64 dirty = 0;
  if (fast8_) {
    // Empty 8-way ways are always clean, so the drain just counts each
    // set's dirty bits (a byte-sum multiply: no popcount instruction on
    // baseline x86-64); resetting the meta lane keeps empty ways clean.
    for (u64 s = 0; s < sets_; ++s) {
      u64 m;
      std::memcpy(&m, &meta_[s * 8], 8);
      dirty += (((m & kHigh) >> 7) * kLane) >> 56;
    }
    std::fill(tags32_.begin(), tags32_.end(), kInvalidTag32);
    std::fill(meta_.begin(), meta_.end(), fresh_meta());
  } else {
    for (size_t i = 0; i < tags_.size(); ++i)
      dirty += tags_[i] != kInvalidTag && (meta_[i] & kDirtyBit) != 0;
    // Stale recency/RRPV metadata is never read before the next fill
    // overwrites it.
    std::fill(tags_.begin(), tags_.end(), kInvalidTag);
  }
  stats_.writebacks += dirty;
  stats_.dram_write_bytes += dirty * line_bytes_;
  std::fill(mru_way_.begin(), mru_way_.end(), 0u);
}

u64 SetAssocCache::valid_lines() const {
  u64 n = 0;
  if (fast8_) {
    for (const u32 tag : tags32_) n += tag != kInvalidTag32;
  } else {
    for (const u64 tag : tags_) n += tag != kInvalidTag;
  }
  return n;
}

bool SetAssocCache::contains_line(u64 line) const {
  const u64 tag = tag_of_line(line);
  const u64 set = set_of_line(line);
  if (fast8_) {
    if (tag >= kInvalidTag32) return false;
    const u32 tag32 = static_cast<u32>(tag);
    const u32* tags = &tags32_[set * 8];
    for (u32 w = 0; w < 8; ++w)
      if (tags[w] == tag32) return true;
    return false;
  }
  const u64* tags = &tags_[set * assoc_];
  for (u32 w = 0; w < assoc_; ++w)
    if (tags[w] == tag) return true;
  return false;
}

#if !defined(CELLO_HAVE_AVX2)
// Stubs so the class links when the AVX2 translation unit is compiled out;
// simd_ is never set in that configuration.
bool SetAssocCache::touch_line8_simd(u64, u64, bool) { return false; }
void SetAssocCache::access_lines_simd(u64, u64, bool) {}
#endif

}  // namespace cello::cache
