// AVX2 hot loop for the default 8-way geometry: the whole u32 tag lane of a
// set is one 32-byte load, so the match-way and empty-way masks come out of
// one vector compare each with no mispredicting scan.  Compiled with -mavx2
// for this translation unit only; SetAssocCache dispatches here at runtime
// when the CPU supports it (see simd_ in the constructor).
//
// Replacement decisions are identical to the scalar path — victim choice,
// RRPV aging, LRU recency shifts and the BRRIP insertion counter evolve
// bit-identically — so simulation results never depend on the host CPU.
#include "cache/cache.hpp"

#if defined(CELLO_HAVE_AVX2)

#include <immintrin.h>

namespace cello::cache {

namespace {

/// One bit per way: which of a set's 8 u32 tags equal `needle`.
inline u32 match_mask8(__m256i lane, u32 needle) {
  const __m256i eq = _mm256_cmpeq_epi32(lane, _mm256_set1_epi32(static_cast<int>(needle)));
  return static_cast<u32>(_mm256_movemask_ps(_mm256_castsi256_ps(eq)));
}

}  // namespace

bool SetAssocCache::touch_line8_simd(u64 set, u64 tag, bool is_write) {
  const u32 tag32 = static_cast<u32>(tag);
  u32* tags = &tags32_[set * 8];
  const __m256i lane = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(tags));
  const u32 match = match_mask8(lane, tag32);
  if (policy_ == Policy::Lru) {
    // Recency order: the hit way, else the first empty way, else way 7.
    const u32 empty = match_mask8(lane, kInvalidTag32);
    const u32 j = static_cast<u32>(std::countr_zero(match | empty | 0x80));
    return lru_access8(set, j, match != 0, is_write, [&] {
      // Ways [0, j) shift down, the tag lands at way 0: one 32-byte store, so
      // the next probe of this set loads straight from it.
      const __m256i way = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
      const __m256i down =
          _mm256_permutevar8x32_epi32(lane, _mm256_setr_epi32(0, 0, 1, 2, 3, 4, 5, 6));
      const __m256i upto_j = _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(j) + 1), way);
      const __m256i shifted = _mm256_blendv_epi8(lane, down, upto_j);
      const __m256i tag_v = _mm256_set1_epi32(static_cast<int>(tag32));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(tags), _mm256_blend_epi32(shifted, tag_v, 1));
    });
  }
  if (match != 0) {
    hit_update8(set, static_cast<u32>(std::countr_zero(match)), is_write);
    return true;
  }
  fill8(set, tag32, match_mask8(lane, kInvalidTag32), is_write);
  return false;
}

// Flattened so the probe inlines into the per-line walk: a call per line
// costs direct-engine replay 10-20%.
[[gnu::flatten]] void SetAssocCache::access_lines_simd(u64 first_line, u64 count, bool is_write) {
  stats_.accesses += count;
  stats_.tag_lookups += count;
  stats_.data_accesses += count;

  stats_.hits += walk_lines(first_line, count, [&](u64 set, u64 tag) {
    return touch_line8_simd(set, tag, is_write);
  });
}

}  // namespace cello::cache

#endif  // CELLO_HAVE_AVX2
