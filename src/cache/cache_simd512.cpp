// AVX-512 group kernels for the compact replay engine (StreamReplayer).
//
// Replay walks consecutive lines through consecutive sets with a constant
// tag, so the unit of work is a *group*: up to 8 consecutive sets, one line
// each, processed as one 512-bit lane-parallel step over the compact
// struct-of-arrays state (a u8 tag per way + one aux u64 per set).  Per
// group, each 8-byte lane holds one set; hit detect, invalid-way pick, LRU
// victim/promote and BRRIP victim/aging are SWAR + masked vector ops with no
// per-way branching:
//  * LRU: the packed rank word ages via one masked add (+1 where rank <
//    rank[selected]); the selected way's lane collapses to rank 0 (MRU) with
//    the dirty bit absorbed in the same blend.
//  * BRRIP: the scalar "age until some RRPV == 3" loop is replaced by its
//    closed form — each full missing set ages by (3 - its max RRPV) in one
//    masked add; the bimodal long-vs-distant insert lands on the exact fill
//    the deterministic counter selects via a PDEP over the miss mask.
// Both make bit-for-bit the replacement decisions of SetAssocCache's scalar
// and AVX2 paths (tests assert full-stats identity through replay).
//
// Tags are stored rebased against the stream's address window (tag8 = tag -
// base_tag, 0xFF = empty) so real multi-GiB address spaces fit the byte
// lane; eligibility is checked at StreamReplayer construction.
//
// This TU is compiled with -mavx512f/bw/dq -mbmi2 when the compiler supports
// them (CELLO_HAVE_AVX512); the CPU is probed at runtime and
// CELLO_DISABLE_AVX512=1 forces the portable direct engine.
#include "cache/cache_replay.hpp"

#include <cstdlib>

namespace cello::cache::detail {

namespace {

bool avx512_disabled_by_env() {
  const char* e = std::getenv("CELLO_DISABLE_AVX512");
  return e != nullptr && *e != '\0' && *e != '0';
}

}  // namespace

#if defined(CELLO_HAVE_AVX512)

bool avx512_runtime() {
  // Called once per replayer; re-reads the env so tests can toggle engines.
  return __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
         __builtin_cpu_supports("avx512dq") && __builtin_cpu_supports("bmi2") &&
         !avx512_disabled_by_env();
}

#else

bool avx512_runtime() {
  (void)avx512_disabled_by_env;
  return false;
}

/// Never reached: StreamReplayer only selects the compact engine when
/// avx512_runtime() is true.
void replay_spans_avx512(CompactState&, const Addr*, const u32*, const u8*, size_t, size_t) {}

#endif

}  // namespace cello::cache::detail

#if defined(CELLO_HAVE_AVX512)

#include <immintrin.h>

#include <algorithm>
#include <bit>

namespace cello::cache::detail {

namespace {

constexpr u64 kLane = 0x0101010101010101ull;  ///< 1 in every byte
constexpr u64 kHigh = 0x8080808080808080ull;  ///< bit 7 of every byte

/// Byte-broadcast within each 8-byte lane: shuffle control replicating lane
/// byte 0 (where the or/max-reduce below lands) across its lane.
inline __m512i lane_bcast0() {
  return _mm512_broadcast_i32x4(_mm_set_epi8(8, 8, 8, 8, 8, 8, 8, 8, 0, 0, 0, 0, 0, 0, 0, 0));
}

/// One group of `k` consecutive LRU sets (lines), all probing `tag8`.
inline void group_lru(CompactState& st, u64 set, u8 tag8, bool w, unsigned k) {
  const u64 slotm = k == 8 ? ~0ull : ((1ull << (8 * k)) - 1);
  u8* tp = &st.tags[set * 8];
  const __m512i T = _mm512_set1_epi8(static_cast<char>(tag8));
  const __m512i K7 = _mm512_set1_epi8(7);
  const __m512i K40 = _mm512_set1_epi8(0x40);
  __m512i Z = _mm512_maskz_loadu_epi8(static_cast<__mmask64>(slotm), tp);
  __m512i R = _mm512_maskz_loadu_epi8(static_cast<__mmask64>(slotm), &st.aux[set]);
  const u64 hit = _mm512_mask_cmpeq_epi8_mask(static_cast<__mmask64>(slotm), Z, T);
  // Collapse the per-way hit bits to one flag byte per set lane.
  u64 hb = hit | (hit >> 4);
  hb |= hb >> 2;
  hb |= hb >> 1;
  hb &= kLane;
  const __m512i Rr = _mm512_and_si512(R, K7);
  const u64 lanem = kLane & slotm;
  u64 sel, sel_miss = 0, victim = 0, mbx = 0, ibx = 0;
  if (hb == lanem) {
    sel = hit;  // every set hit: promote-only fast path
  } else {
    const u64 inv =
        _mm512_mask_cmpeq_epi8_mask(static_cast<__mmask64>(slotm), Z, _mm512_set1_epi8(-1));
    u64 ib = inv | (inv >> 4);
    ib |= ib >> 2;
    ib |= ib >> 1;
    ib &= kLane;
    ibx = ib * 0xFF;                  // byte-expanded "set has an empty way"
    mbx = ((~hb) & lanem) * 0xFF;     // byte-expanded "set missed"
    // Lowest empty way per lane: the borrow of the SWAR decrement only
    // propagates upward, so it clears exactly the bits above the lowest one.
    const u64 invlo = inv & ~((inv | kHigh) - kLane);
    const u64 k7m = _mm512_cmpeq_epi8_mask(Rr, K7);  // rank 7 == LRU way
    victim = (invlo & ibx) | (k7m & ~ibx);
    sel_miss = victim & mbx;
    sel = hit | sel_miss;
  }
  // Age: +1 for every way ranked more recently than the selected way.  The
  // selected way's rank is or-reduced to lane byte 0, then broadcast.
  __m512i rsel = _mm512_maskz_mov_epi8(static_cast<__mmask64>(sel), Rr);
  rsel = _mm512_or_si512(rsel, _mm512_srli_epi64(rsel, 32));
  rsel = _mm512_or_si512(rsel, _mm512_srli_epi64(rsel, 16));
  rsel = _mm512_or_si512(rsel, _mm512_srli_epi64(rsel, 8));
  const __m512i rb = _mm512_shuffle_epi8(rsel, lane_bcast0());
  const u64 klt = _mm512_mask_cmplt_epu8_mask(static_cast<__mmask64>(slotm), Rr, rb);
  const __m512i R2 = _mm512_mask_add_epi8(R, static_cast<__mmask64>(klt), R, _mm512_set1_epi8(1));
  // Selected lane: rank 0 (MRU), dirty preserved on hits / rebuilt on fills.
  const __m512i WV = _mm512_set1_epi8(w ? 0x40 : 0);
  __m512i ch = _mm512_and_si512(_mm512_maskz_mov_epi8(static_cast<__mmask64>(hit), K40), R2);
  ch = _mm512_or_si512(ch, WV);
  _mm512_mask_storeu_epi8(&st.aux[set], static_cast<__mmask64>(slotm),
                          _mm512_mask_mov_epi8(R2, static_cast<__mmask64>(sel), ch));
  const u64 nh = static_cast<u64>(std::popcount(hit));
  st.s.lines += k;
  st.s.hits += nh;
  st.s.misses += k - nh;
  st.s.dram_read += (k - nh) * st.line_bytes;
  if (sel_miss != 0) {
    _mm512_mask_storeu_epi8(tp, static_cast<__mmask64>(sel_miss), T);
    const u64 evsets = mbx & ~ibx;  // missed with no empty way -> eviction
    st.s.evictions += static_cast<u64>(std::popcount(evsets & kLane));
    const u64 kd = _mm512_test_epi8_mask(R, K40);  // pre-update dirty bits
    const u64 wbk = static_cast<u64>(std::popcount(kd & victim & evsets));
    st.s.writebacks += wbk;
    st.s.dram_write += wbk * st.line_bytes;
  }
}

/// One group of `k` consecutive BRRIP sets (lines), all probing `tag8`.
inline void group_brrip(CompactState& st, u64 set, u8 tag8, bool w, unsigned k) {
  const u64 slotm = k == 8 ? ~0ull : ((1ull << (8 * k)) - 1);
  u8* tp = &st.tags[set * 8];
  u8* mp = reinterpret_cast<u8*>(&st.aux[set]);
  const __m512i T = _mm512_set1_epi8(static_cast<char>(tag8));
  const __m512i K3 = _mm512_set1_epi8(3);
  const __m512i K80 = _mm512_set1_epi8(static_cast<char>(0x80));
  const __m512i Z = _mm512_maskz_loadu_epi8(static_cast<__mmask64>(slotm), tp);
  __m512i M = _mm512_maskz_loadu_epi8(static_cast<__mmask64>(slotm), mp);
  const u64 hit = _mm512_mask_cmpeq_epi8_mask(static_cast<__mmask64>(slotm), Z, T);
  u64 hb = hit | (hit >> 4);
  hb |= hb >> 2;
  hb |= hb >> 1;
  hb &= kLane;
  const u64 lanem = kLane & slotm;
  const u64 nh = static_cast<u64>(std::popcount(hit));
  st.s.lines += k;
  st.s.hits += nh;
  st.s.misses += k - nh;
  st.s.dram_read += (k - nh) * st.line_bytes;
  const __m512i WV = _mm512_set1_epi8(w ? static_cast<char>(0x80) : 0);
  if (hb == lanem) {
    // Every set hit: RRPV -> 0, dirty absorbed.
    const __m512i ch = _mm512_or_si512(_mm512_and_si512(M, K80), WV);
    _mm512_mask_storeu_epi8(mp, static_cast<__mmask64>(hit), ch);
    return;
  }
  const u64 inv =
      _mm512_mask_cmpeq_epi8_mask(static_cast<__mmask64>(slotm), Z, _mm512_set1_epi8(-1));
  u64 ib = inv | (inv >> 4);
  ib |= ib >> 2;
  ib |= ib >> 1;
  ib &= kLane;
  const u64 ibx = ib * 0xFF;
  const u64 mbx = ((~hb) & lanem) * 0xFF;
  const u64 invlo = inv & ~((inv | kHigh) - kLane);
  const u64 fullm = mbx & ~ibx;
  if (fullm != 0) {
    // Closed-form aging: each full missing set ages by (3 - its max RRPV) —
    // exactly the number of +1 rounds the scalar victim search would run.
    const __m512i Mr = _mm512_and_si512(M, K3);
    __m512i mx = _mm512_max_epu8(Mr, _mm512_srli_epi64(Mr, 32));
    mx = _mm512_max_epu8(mx, _mm512_srli_epi64(mx, 16));
    mx = _mm512_max_epu8(mx, _mm512_srli_epi64(mx, 8));
    const __m512i mxb = _mm512_shuffle_epi8(mx, lane_bcast0());
    const __m512i add = _mm512_sub_epi8(K3, mxb);
    M = _mm512_mask_add_epi8(M, static_cast<__mmask64>(fullm), M, add);
  }
  const __m512i Mr2 = _mm512_and_si512(M, K3);
  const u64 d3 = _mm512_cmpeq_epi8_mask(Mr2, K3);
  const u64 d3lo = d3 & ~((d3 | kHigh) - kLane);  // first distant way per lane
  const u64 victim = (invlo & ibx) | (d3lo & ~ibx);
  const u64 sel_miss = victim & mbx;
  const __m512i ch = _mm512_or_si512(_mm512_and_si512(M, K80), WV);
  st.s.evictions += static_cast<u64>(std::popcount(fullm & kLane));
  const u64 kd = _mm512_test_epi8_mask(M, K80);  // post-aging == pre-fill dirty
  const u64 wbk = static_cast<u64>(std::popcount(kd & victim & fullm));
  st.s.writebacks += wbk;
  st.s.dram_write += wbk * st.line_bytes;
  // Bimodal insertion: fills land RRPV 3 except the one the deterministic
  // counter picks (every 32nd overall), which lands RRPV 2.  Misses resolve
  // in set order, so the chosen fill is the jstar-th set bit of the miss
  // mask — a single PDEP.
  const u64 nf = k - nh;
  const u64 jstar = 32 - st.counter % 32;
  st.counter += nf;
  __m512i M2 = _mm512_mask_mov_epi8(M, static_cast<__mmask64>(sel_miss),
                                    _mm512_or_si512(WV, K3));
  if (jstar <= nf) {
    const u64 onehot = _pdep_u64(1ull << (jstar - 1), sel_miss);
    M2 = _mm512_mask_mov_epi8(M2, static_cast<__mmask64>(onehot),
                              _mm512_or_si512(WV, _mm512_set1_epi8(2)));
  }
  const __m512i M3 = _mm512_mask_mov_epi8(M2, static_cast<__mmask64>(hit), ch);
  _mm512_mask_storeu_epi8(mp, static_cast<__mmask64>(slotm), M3);
  if (sel_miss != 0) _mm512_mask_storeu_epi8(tp, static_cast<__mmask64>(sel_miss), T);
}

/// Walk `count` consecutive lines: segment at set wraps (the rebased tag is
/// constant within a segment), then feed 8-set groups to the kernel.
template <typename GroupFn>
inline void walk_lines(CompactState& st, u64 first_line, u64 count, bool w, GroupFn&& group) {
  u64 line = first_line, remaining = count;
  while (remaining != 0) {
    u64 set = line & st.set_mask;
    const u64 tag = (line >> st.set_shift) - st.base_tag;
    const u64 n = std::min(remaining, st.sets - set);
    const u8 tag8 = static_cast<u8>(tag);
    u64 left = n;
    while (left != 0) {
      const unsigned k = static_cast<unsigned>(std::min<u64>(left, 8));
      group(st, set, tag8, w, k);
      set += k;
      left -= k;
    }
    line += n;
    remaining -= n;
  }
}

}  // namespace

void replay_spans_avx512(CompactState& st, const Addr* addr, const u32* len, const u8* write,
                         size_t begin, size_t end) {
  const i32 ls = st.line_shift;
  const bool lru = st.policy == Policy::Lru;
  for (size_t si = begin; si < end; ++si) {
    if (si + 4 < end) {
      // Same lookahead the direct engine's prefetch_range provides: pull the
      // upcoming span's first set's tag + aux lanes toward the host caches.
      const u64 nset = (addr[si + 4] >> ls) & st.set_mask;
      _mm_prefetch(reinterpret_cast<const char*>(&st.tags[nset * 8]), _MM_HINT_T0);
      _mm_prefetch(reinterpret_cast<const char*>(&st.aux[nset]), _MM_HINT_T0);
    }
    const u64 first = addr[si] >> ls;
    const u64 last = (addr[si] + len[si] - 1) >> ls;
    const bool w = write[si] != 0;
    if (lru)
      walk_lines(st, first, last - first + 1, w, group_lru);
    else
      walk_lines(st, first, last - first + 1, w, group_brrip);
  }
}

}  // namespace cello::cache::detail

#endif  // CELLO_HAVE_AVX512
