// AVX-512 group kernels for the compact replay engine (StreamReplayer).
//
// Replay walks consecutive lines through consecutive sets with a constant
// tag, so the unit of work is a *group*: up to 8 consecutive sets, one line
// each, processed as one 512-bit lane-parallel step over the compact
// struct-of-arrays state (a u8 tag per way + one aux u64 per set).  Per
// group, each 8-byte lane holds one set; hit detect, invalid-way pick, LRU
// move-to-front and BRRIP victim/aging are SWAR + masked vector ops with no
// per-way branching:
//  * LRU: sets are in recency order (way 0 = MRU, empty ways last), so each
//    lane's selected way j is the hit way, else the first empty way, else
//    way 7.  Tags and dirty bytes shift down one way with one 64-bit shift
//    by 8, blended under a "bytes <= j" mask, and the line lands at way 0.
//  * BRRIP: the scalar "age until some RRPV == 3" loop is replaced by its
//    closed form — each full missing set ages by (3 - its max RRPV) in one
//    masked add; the bimodal long-vs-distant insert lands on the exact fill
//    the deterministic counter selects via a PDEP over the miss mask.
// Both make bit for bit the decisions of the SWAR walk over the same lanes
// (cache_replay.cpp) and of SetAssocCache (cache_diff_test checks all three).
//
// Steady streaming: most replayed lines belong to long sequential spans
// that sweep sets whose ways are all valid and none of which holds the
// line.  A full LRU group in that state takes a branch with no per-lane
// selection: every set evicts way 7, so tags and dirty bytes are one shift
// each with the new line ORed in at way 0.  (The BRRIP analogue, aging and
// evicting without the hit/empty bookkeeping, measured no faster on
// BM_ReplayStreamLlm, so BRRIP has no such branch.)
//
// Span walk: each span is cut at set wraps into segments of constant
// (rebased) tag; a segment runs its full 8-set groups in a straight loop
// and ends with at most one partial group.
//
// Counters: a call keeps the four CacheStats counters in a local copy
// (registers, which the kernel's byte stores cannot alias) and stores it
// back once; the miss count doubles as BRRIP's bimodal fill counter.
//
// This TU is compiled with -mavx512f/bw/dq -mbmi2 when the compiler supports
// them (CELLO_HAVE_AVX512); the CPU is probed at runtime, and without it, or
// with CELLO_DISABLE_AVX512=1, StreamReplayer runs the SWAR walk instead.
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

/// Never reached: StreamReplayer runs the SWAR walk unless avx512_runtime().
void replay_spans_avx512(CompactState&, const SpanStream&, size_t, size_t, CacheStats&) {}

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

// The plain 64-bit shift intrinsics expand through _mm512_undefined_epi32(),
// which g++ reports as maybe-uninitialized; the zero-masking forms under an
// all-ones mask compile to the same instruction.
inline __m512i shl8(__m512i v) { return _mm512_maskz_slli_epi64(0xFF, v, 8); }
template <unsigned kBits>
inline __m512i shr(__m512i v) {
  return _mm512_maskz_srli_epi64(0xFF, v, kBits);
}

/// One segment's probe: the rebased tag in every byte, and its line image
/// for a way-0 fill (tag in byte 0 of every lane, zero elsewhere).
struct Probe {
  __m512i tag;
  __m512i tag_way0;
  bool write;
};

/// Collapse per-way bits to bit 0 of each set's lane byte 0 (any way set).
inline u64 any_way(u64 m) {
  m |= m >> 4;
  m |= m >> 2;
  m |= m >> 1;
  return m & kLane;
}

struct Lru {
  /// One group of consecutive sets, all probing `p`: 8 sets when kFull,
  /// else the first `k`.
  template <bool kFull>
  static void group(u8* tp, u8* dp, const Probe& p, unsigned k, CacheStats& t) {
    const u64 slotm = kFull ? ~0ull : ((1ull << (8 * k)) - 1);
    const u64 lanem = kLane & slotm;  // way 0 of every set in the group
    const __m512i K80 = _mm512_set1_epi8(static_cast<char>(0x80));
    const __m512i Z = _mm512_maskz_loadu_epi8(static_cast<__mmask64>(slotm), tp);
    const u64 hit = _mm512_mask_cmpeq_epi8_mask(static_cast<__mmask64>(slotm), Z, p.tag);
    const u64 inv =
        _mm512_mask_cmpeq_epi8_mask(static_cast<__mmask64>(slotm), Z, _mm512_set1_epi8(-1));
    const __m512i D = _mm512_maskz_loadu_epi8(static_cast<__mmask64>(slotm), dp);
    if (kFull && (hit | inv) == 0) {
      // Steady streaming: every set misses with no empty way, so each evicts
      // way 7 and the line lands at way 0 of a one-way-shifted set.
      t.misses += 8;
      t.evictions += 8;
      t.writebacks += static_cast<u64>(std::popcount(_mm512_movepi8_mask(D) & kHigh));
      const __m512i W0 = _mm512_set1_epi64(p.write ? 0x80 : 0);
      _mm512_storeu_si512(tp, _mm512_or_si512(shl8(Z), p.tag_way0));
      _mm512_storeu_si512(dp, _mm512_or_si512(shl8(D), W0));
      return;
    }
    const unsigned nh = static_cast<unsigned>(std::popcount(hit));
    t.misses += (kFull ? 8 : k) - nh;
    if (hit == lanem) {
      // Every set hit its MRU way: nothing moves; a write dirties way 0.
      if (p.write) _mm512_mask_storeu_epi8(dp, static_cast<__mmask64>(lanem), K80);
      return;
    }
    const u64 kd = _mm512_test_epi8_mask(D, K80);  // dirty ways
    u64 sel = hit;
    if (nh != (kFull ? 8 : k)) {
      const u64 missed = ((~any_way(hit)) & lanem) * 0xFF;  // byte-expanded "set missed"
      // A missing set fills its first empty way, else evicts way 7: the lowest
      // bit of (empty ways | way 7).  Each lane's byte is nonzero, so the SWAR
      // decrement's borrow stays inside it.
      const u64 cand = inv | kHigh;
      const u64 fill = cand & ~(cand - kLane) & missed;
      const u64 evict = fill & kHigh & ~inv;  // way 7 still held a line
      t.evictions += static_cast<u64>(std::popcount(evict));
      t.writebacks += static_cast<u64>(std::popcount(evict & kd));
      sel |= fill;
    }
    // Bytes 0..j of each lane, from its one-hot selected way j (same borrow
    // trick: or-ing in bit 7 keeps the decrement inside the lane's byte).
    const u64 upto = (sel | (((sel | kHigh) - kLane) & ~kHigh)) & slotm;
    // The selected line's dirty bit, folded to its lane's way 0, or the write.
    const u64 front_dirty = p.write ? lanem : any_way(hit & kd) & lanem;
    __m512i Z2 = _mm512_mask_mov_epi8(Z, static_cast<__mmask64>(upto), shl8(Z));
    __m512i D2 = _mm512_mask_mov_epi8(D, static_cast<__mmask64>(upto), shl8(D));
    Z2 = _mm512_mask_mov_epi8(Z2, static_cast<__mmask64>(lanem), p.tag);
    D2 = _mm512_mask_mov_epi8(D2, static_cast<__mmask64>(front_dirty), K80);
    if (kFull) {
      // Bytes outside `upto` hold what was loaded: storing them is a no-op.
      _mm512_storeu_si512(tp, Z2);
      _mm512_storeu_si512(dp, D2);
    } else {
      _mm512_mask_storeu_epi8(tp, static_cast<__mmask64>(upto), Z2);
      _mm512_mask_storeu_epi8(dp, static_cast<__mmask64>(upto), D2);
    }
  }
};

struct Brrip {
  /// One group of consecutive sets, all probing `p`: 8 sets when kFull,
  /// else the first `k`.
  template <bool kFull>
  static void group(u8* tp, u8* mp, const Probe& p, unsigned k, CacheStats& t) {
    const u64 slotm = kFull ? ~0ull : ((1ull << (8 * k)) - 1);
    const u64 lanem = kLane & slotm;
    const __m512i K3 = _mm512_set1_epi8(3);
    const __m512i K80 = _mm512_set1_epi8(static_cast<char>(0x80));
    const __m512i Z = _mm512_maskz_loadu_epi8(static_cast<__mmask64>(slotm), tp);
    __m512i M = _mm512_maskz_loadu_epi8(static_cast<__mmask64>(slotm), mp);
    const u64 hit = _mm512_mask_cmpeq_epi8_mask(static_cast<__mmask64>(slotm), Z, p.tag);
    const u64 inv =
        _mm512_mask_cmpeq_epi8_mask(static_cast<__mmask64>(slotm), Z, _mm512_set1_epi8(-1));
    const __m512i WV = _mm512_set1_epi8(p.write ? static_cast<char>(0x80) : 0);
    const u64 hb = any_way(hit);
    const u64 nh = static_cast<u64>(std::popcount(hit));
    if (hb == lanem) {
      // Every set hit: RRPV -> 0, dirty absorbed.
      const __m512i ch = _mm512_or_si512(_mm512_and_si512(M, K80), WV);
      _mm512_mask_storeu_epi8(mp, static_cast<__mmask64>(hit), ch);
      return;
    }
    const u64 ib = any_way(inv);
    const u64 ibx = ib * 0xFF;
    const u64 mbx = ((~hb) & lanem) * 0xFF;
    const u64 invlo = inv & ~((inv | kHigh) - kLane);
    const u64 fullm = mbx & ~ibx;
    if (fullm != 0) {
      // Closed-form aging: each full missing set ages by (3 - its max RRPV) —
      // exactly the number of +1 rounds the scalar victim search would run.
      // Byte 0 of each lane gathers its max, and a shuffle spreads it back.
      const __m512i Mr = _mm512_and_si512(M, K3);
      __m512i mx = _mm512_max_epu8(Mr, shr<32>(Mr));
      mx = _mm512_max_epu8(mx, shr<16>(mx));
      mx = _mm512_max_epu8(mx, shr<8>(mx));
      const __m512i byte0 = _mm512_set_epi64(0x0808080808080808ll, 0, 0x0808080808080808ll, 0,
                                             0x0808080808080808ll, 0, 0x0808080808080808ll, 0);
      const __m512i add = _mm512_sub_epi8(K3, _mm512_shuffle_epi8(mx, byte0));
      M = _mm512_mask_add_epi8(M, static_cast<__mmask64>(fullm), M, add);
    }
    const u64 d3 = _mm512_cmpeq_epi8_mask(_mm512_and_si512(M, K3), K3);
    const u64 d3lo = d3 & ~((d3 | kHigh) - kLane);  // first distant way per lane
    const u64 victim = (invlo & ibx) | (d3lo & ~ibx);
    const u64 sel_miss = victim & mbx;
    t.evictions += static_cast<u64>(std::popcount(fullm & kLane));
    const u64 kd = _mm512_test_epi8_mask(M, K80);  // post-aging == pre-fill dirty
    t.writebacks += static_cast<u64>(std::popcount(kd & victim & fullm));
    // Bimodal insertion: fills land RRPV 3 except the one the deterministic
    // counter picks (every 32nd overall), which lands RRPV 2.  Misses resolve
    // in set order, so the chosen fill is the jstar-th set bit of the miss
    // mask — a single PDEP.
    const u64 nf = (kFull ? 8 : k) - nh;
    const u64 jstar = 32 - t.misses % 32;
    t.misses += nf;
    __m512i M2 = _mm512_mask_mov_epi8(M, static_cast<__mmask64>(sel_miss),
                                      _mm512_or_si512(WV, K3));
    if (jstar <= nf) {
      const u64 onehot = _pdep_u64(1ull << (jstar - 1), sel_miss);
      M2 = _mm512_mask_mov_epi8(M2, static_cast<__mmask64>(onehot),
                                _mm512_or_si512(WV, _mm512_set1_epi8(2)));
    }
    const __m512i ch = _mm512_or_si512(_mm512_and_si512(M, K80), WV);
    const __m512i M3 = _mm512_mask_mov_epi8(M2, static_cast<__mmask64>(hit), ch);
    if (kFull) {
      _mm512_storeu_si512(mp, M3);
      _mm512_storeu_si512(tp, _mm512_mask_mov_epi8(Z, static_cast<__mmask64>(sel_miss), p.tag));
    } else {
      _mm512_mask_storeu_epi8(mp, static_cast<__mmask64>(slotm), M3);
      if (sel_miss != 0) _mm512_mask_storeu_epi8(tp, static_cast<__mmask64>(sel_miss), p.tag);
    }
  }
};

/// Run spans [begin, end) under one policy's group kernel.  Everything the
/// loop reads lives in locals, so the kernel's byte stores cannot force
/// reloads of CompactState.
template <typename Kernel>
void replay(CompactState& st, const SpanStream& stream, size_t begin, size_t end,
            CacheStats& stats) {
  const Addr* const addr = stream.addr.data();
  const u32* const len = stream.len.data();
  const u8* const write = stream.write.data();
  u8* const tags = st.tag_lane();
  u8* const aux = reinterpret_cast<u8*>(st.aux_lane());
  const u64 sets = st.sets, set_mask = st.set_mask;
  const i32 ls = st.line_shift, set_shift = st.set_shift;
  const u64 base_tag = st.base_tag;
  // Running totals in a local copy; its miss count is BRRIP's fill counter.
  CacheStats t = stats;
  for (size_t si = begin; si < end; ++si) {
    if (si + 4 < end) {
      // Pull the upcoming span's first set's tag + aux lanes toward the host
      // caches, as the SWAR walk does.
      const u64 nset = (addr[si + 4] >> ls) & set_mask;
      _mm_prefetch(reinterpret_cast<const char*>(tags + nset * 8), _MM_HINT_T0);
      _mm_prefetch(reinterpret_cast<const char*>(aux + nset * 8), _MM_HINT_T0);
    }
    u64 line = addr[si] >> ls;
    const u64 last = (addr[si] + len[si] - 1) >> ls;
    t.accesses += last - line + 1;
    const bool w = write[si] != 0;
    // Segment at set wraps: the rebased tag is constant within a segment.
    while (line <= last) {
      const u64 set = line & set_mask;
      const u64 n = std::min(last - line + 1, sets - set);
      const u8 tag8 = static_cast<u8>((line >> set_shift) - base_tag);
      const Probe p{_mm512_set1_epi8(static_cast<char>(tag8)), _mm512_set1_epi64(tag8), w};
      u8* tp = tags + set * 8;
      u8* dp = aux + set * 8;
      for (const u8* const full_end = tp + n / 8 * 64; tp != full_end; tp += 64, dp += 64)
        Kernel::template group<true>(tp, dp, p, 8, t);
      if (n % 8 != 0) Kernel::template group<false>(tp, dp, p, static_cast<unsigned>(n % 8), t);
      line += n;
    }
  }
  stats = t;
}

}  // namespace

void replay_spans_avx512(CompactState& st, const SpanStream& stream, size_t begin, size_t end,
                         CacheStats& stats) {
  if (st.policy == Policy::Lru)
    replay<Lru>(st, stream, begin, end, stats);
  else
    replay<Brrip>(st, stream, begin, end, stats);
}

}  // namespace cello::cache::detail

#endif  // CELLO_HAVE_AVX512
