// The replay half of the trace-driven cache path: the span stream every
// trace-driven run replays, and the replayer that drives one cache with it.
//
// SpanStream is the data of a captured stream — its periodic structure over
// scheduled steps, the struct-of-arrays spans of the materialized steps and
// their op boundaries.  sim::AccessStream extends it with the capture (and
// the two architecture knobs the capture read); tests build one directly.
// The cache layer stays independent of sim.
//
// StreamReplayer drives one SetAssocCache to the exact state + stats the
// equivalent sequence of access_range calls would produce, and converts the
// span traffic back into one BufferService per scheduled step at the
// recorded op boundaries.  Every engine counts into the cache's own
// CacheStats, so per-step services and fast-forward are computed once.
//
// One replay state serves the 8-way power-of-two geometry (Table V) when
// every tag the stream touches rebases into a byte: the compact lanes
// (CompactState), written back into the cache's own lanes at the end.  Two
// walks over them decide bit for bit alike: 8 sets per AVX-512 group where
// the host has it (cache_simd512.cpp), else, or with CELLO_DISABLE_AVX512=1,
// a scalar SWAR walk one set at a time (cache_replay.cpp).  Every other
// geometry, or a wider tag window, replays through the cache's public
// access_range — trivially bit-identical.
//
// Periodic fast-forward: iterative workloads repeat the same span block per
// iteration (AccessStream detects this at capture).  After each occurrence
// the replayer compares the replacement state with the one the occurrence
// started from; once an occurrence leaves it unchanged (a fixed point) the
// remaining occurrences are pure arithmetic — the four counters advance by
// that occurrence's delta times the skipped count and per-op services copy.
// Every engine fast-forwards, at every geometry; this, not raw line
// throughput, is where the order-of-magnitude sweep speedups on CG-style
// workloads come from.  The check is a raw compare of the tag and meta lanes
// for both policies: LRU sets are stored in recency order with empty ways
// last, which is already the canonical form of an LRU state (LRU outcomes do
// not depend on which way holds a line), so a converged LRU state repeats
// byte for byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cache/cache.hpp"
#include "common/error.hpp"

namespace cello::cache {

/// A captured span stream: scheduled steps = prefix + period x count +
/// suffix, of which only prefix + one period + suffix are materialized as
/// spans.  A stream with period_steps == 0 is linear (everything lives in the
/// prefix).
struct SpanStream {
  // ---- periodic structure over scheduled steps ----
  u64 schedule_steps = 0;  ///< steps in the source schedule
  u64 prefix_steps = 0;    ///< materialized leading steps
  u64 period_steps = 0;    ///< steps per occurrence; 0 = no period (linear)
  u64 period_count = 0;    ///< occurrences the schedule contains (>= 2 when periodic)
  u64 suffix_steps = 0;    ///< materialized trailing steps

  // ---- spans of the materialized steps (prefix, one period, suffix) ----
  std::vector<Addr> addr;
  std::vector<u32> len;
  std::vector<u8> write;
  /// Per materialized step: exclusive span index — step s owns spans
  /// [op_end[s-1], op_end[s]).  Replay converts span traffic back into
  /// per-step services at these boundaries.
  std::vector<u32> op_end;

  Addr min_addr = 0;  ///< lowest byte any span touches
  Addr max_addr = 0;  ///< highest byte any span touches (inclusive)

  u64 materialized_steps() const { return prefix_steps + period_steps + suffix_steps; }
  size_t spans() const { return addr.size(); }

  /// Append a span of `bytes` > 0 bytes to the open step, widening the
  /// address window; throws cello::Error past the 32-bit span length.
  void push_span(Addr a, Bytes bytes, bool is_write) {
    CELLO_CHECK_MSG(bytes <= 0xffffffffull, "access span exceeds the stream's 32-bit length");
    if (addr.empty() || a < min_addr) min_addr = a;
    if (addr.empty() || a + bytes - 1 > max_addr) max_addr = a + bytes - 1;
    addr.push_back(a);
    len.push_back(static_cast<u32>(bytes));
    write.push_back(is_write ? 1 : 0);
  }
  /// Close the open step: it owns the spans pushed since the last close.
  void end_step() { op_end.push_back(static_cast<u32>(addr.size())); }

  bool operator==(const SpanStream&) const = default;
};

namespace detail {

/// Compact replacement state: one u8 tag (0xFF = invalid) and one aux byte
/// per way, set-major — 16 bytes per set, L2-resident for multi-MiB caches.
/// Both lanes use SetAssocCache's layout at 8 ways: LRU ways in recency order
/// (way 0 = MRU, empty ways last), and aux bytes equal to its meta bytes
/// (dirty in 0x80, plus the RRPV in bits 0..1 under BRRIP).  Each lane starts
/// at the first 64-byte boundary of its vector (allocated with that much
/// slack), so a group that starts at a multiple of 8 sets is one aligned
/// 64-byte line.  The counters live in the cache's own CacheStats.
struct CompactState {
  u64 sets = 0;
  u64 set_mask = 0;
  i32 set_shift = 0;
  i32 line_shift = 0;
  u32 base_tag = 0;  ///< tags stored rebased: tag8 = (line >> set_shift) - base_tag
  Policy policy = Policy::Lru;
  std::vector<u8> tags;
  std::vector<u64> aux;

  u8* tag_lane() { return align64(tags.data()); }
  const u8* tag_lane() const { return align64(tags.data()); }
  u64* aux_lane() { return align64(aux.data()); }
  const u64* aux_lane() const { return align64(aux.data()); }

 private:
  template <typename T>
  static T* align64(T* p) {
    return reinterpret_cast<T*>((reinterpret_cast<std::uintptr_t>(p) + 63) & ~std::uintptr_t{63});
  }
};

/// True when this host can run the AVX-512 group kernels (compiled in,
/// CPU-supported, not disabled via CELLO_DISABLE_AVX512).
bool avx512_runtime();

/// Run spans [begin, end) of `stream` through the compact state, counting
/// into `stats`: 8 sets per AVX-512 group (cache_simd512.cpp), or one set at
/// a time as SWAR over the set's two u64 words on any host (cache_replay.cpp).
void replay_spans_avx512(CompactState& st, const SpanStream& stream, size_t begin, size_t end,
                         CacheStats& stats);
void replay_spans_swar(CompactState& st, const SpanStream& stream, size_t begin, size_t end,
                       CacheStats& stats);

}  // namespace detail

class StreamReplayer {
 public:
  /// Binds one cache (which must be in freshly-reset state) to one stream.
  /// The stream must outlive the replayer.
  StreamReplayer(SetAssocCache& cache, const SpanStream& stream);

  /// Replay the whole stream (prefix, every occurrence, suffix) and leave the
  /// cache in its final state; services.size() == schedule_steps afterwards.
  void run(std::vector<BufferService>& services);

  /// Period occurrences run() actually replayed before fast-forwarding the
  /// rest (all of them when the state never reached a fixed point).
  u64 occurrences_replayed() const { return occurrences_replayed_; }

 private:
  /// Replay the spans of materialized steps [step_begin, step_end), recording
  /// one service per step into `out` (contiguous).
  void run_steps(size_t step_begin, size_t step_end, BufferService* out);
  /// Overwrite `blob` with the replacement state; true when that equals
  /// what it held (the state one occurrence earlier).
  bool update_snapshot(std::vector<u8>& blob) const;
  /// Write the compact lanes back into the cache's own lanes.
  void write_back();

  SetAssocCache& cache_;
  const SpanStream& stream_;
  /// The compact lanes' walk; null when the stream replays directly.
  decltype(&detail::replay_spans_swar) replay_ = nullptr;
  u64 occurrences_replayed_ = 0;
  detail::CompactState state_;
};

}  // namespace cello::cache
