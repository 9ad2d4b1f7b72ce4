#include "cache/cache_replay.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/error.hpp"

namespace cello::cache {

namespace detail {

namespace {

constexpr u64 kLane = 0x0101010101010101ull;  ///< 1 in every byte
constexpr u64 kHigh = 0x8080808080808080ull;  ///< bit 7 of every byte

/// Bit 7 set in each zero byte of `x`.  Only the lowest set bit is exact (a
/// borrow out of a zero byte can flag the byte above it), which is all a
/// first-way search needs.
inline u64 zero_bytes(u64 x) { return (x - kLane) & ~x & kHigh; }

inline u64 load8(const u8* p) {
  u64 v;
  std::memcpy(&v, p, 8);
  return v;
}

inline void store8(u8* p, u64 v) { std::memcpy(p, &v, 8); }

/// A segment's event counters, in locals.  Every miss evicts except a fill
/// of an empty way, so those fills are counted instead of the (far more
/// frequent) evictions.  `misses` starts from the cache's running count: it
/// is also BRRIP's bimodal fill counter.
struct Tally {
  u64 misses;
  u64 empty_fills = 0;
  u64 writebacks = 0;
};

/// One line of an 8-way set, LRU: the set is in recency order, so the way to
/// act on is the first one holding the tag or empty, else way 7.  Both lanes
/// shift down one way up to it and the line lands at way 0.
void lru_touch(u8* tp, u8* mp, u64 tag8, u64 dirty, Tally& t) {
  const u64 tags = load8(tp);
  const u64 meta = load8(mp);
  const u64 found = zero_bytes(tags ^ (kLane * tag8)) | zero_bytes(~tags);
  if (found == 0) {
    // Steady streaming: no hit and no empty way, so every way moves down.
    ++t.misses;
    t.writebacks += meta >> 63;
    store8(tp, tags << 8 | tag8);
    store8(mp, meta << 8 | dirty);
    return;
  }
  // Bit offset 8 * j of way j, the way the lowest flag names.
  const unsigned at = static_cast<unsigned>(std::countr_zero(found)) & ~7u;
  const u64 miss = ((tags >> at) & 0xFF) != tag8;  // then way j is empty
  t.misses += miss;
  t.empty_fills += miss;
  const u64 front = dirty | ((meta >> at) & (miss - 1) & 0x80);
  const u64 upto = ~0ull >> (56 - at);  // ways 0..j
  store8(tp, (tags & ~upto) | ((tags << 8) & upto) | tag8);
  store8(mp, (meta & ~upto) | ((meta << 8) & upto) | front);
}

/// One line of an 8-way set, BRRIP: ways stay in place.  A hit resets the
/// way's RRPV; a miss fills the first empty way, else ages the set in the
/// closed form until some way is distant (RRPV 3) and evicts the first.
void brrip_touch(u8* tp, u8* mp, u64 tag8, u64 dirty, Tally& t) {
  const u64 tags = load8(tp);
  const u64 hit = zero_bytes(tags ^ (kLane * tag8));
  if (hit != 0) {
    u8& m = mp[std::countr_zero(hit) >> 3];
    m = static_cast<u8>((m & 0x80) | dirty);
    return;
  }
  ++t.misses;
  const u64 empty = zero_bytes(~tags);
  unsigned v;
  if (empty != 0) {
    v = static_cast<unsigned>(std::countr_zero(empty)) >> 3;
    ++t.empty_fills;
  } else {
    // Aging only runs when every RRPV <= 2, so the +1 never carries into
    // the dirty bit; bit 0 of a byte is set in `distant` where RRPV == 3.
    u64 meta = load8(mp);
    u64 distant;
    while ((distant = meta & (meta >> 1) & kLane) == 0) meta += kLane;
    store8(mp, meta);
    v = static_cast<unsigned>(std::countr_zero(distant)) >> 3;
    t.writebacks += mp[v] >> 7;
  }
  tp[v] = static_cast<u8>(tag8);
  // Bimodal insertion: every 32nd fill lands long (2), the rest distant (3).
  mp[v] = static_cast<u8>(dirty | (t.misses % 32 == 0 ? 2 : 3));
}

/// `n` consecutive sets from the one at `tp`/`mp`, all probing `tag8`.  Out
/// of line, with its counters in locals, so the walk's span bookkeeping
/// cannot crowd the per-line loop out of registers.
template <void (*kTouch)(u8*, u8*, u64, u64, Tally&)>
[[gnu::noinline]] void segment(u8* tp, u8* mp, u64 n, u64 tag8, u64 dirty, CacheStats& stats) {
  Tally t{stats.misses};
  for (u8* const tp_end = tp + n * 8; tp != tp_end; tp += 8, mp += 8)
    kTouch(tp, mp, tag8, dirty, t);
  stats.evictions += t.misses - stats.misses - t.empty_fills;
  stats.misses = t.misses;
  stats.writebacks += t.writebacks;
}

}  // namespace

void replay_spans_swar(CompactState& st, const SpanStream& stream, size_t begin, size_t end,
                       CacheStats& stats) {
  const auto run = st.policy == Policy::Lru ? segment<lru_touch> : segment<brrip_touch>;
  // Locals, so the counter stores cannot force reloads of the geometry.
  u8* const tags = st.tag_lane();
  u8* const aux = reinterpret_cast<u8*>(st.aux_lane());
  const u64 sets = st.sets, set_mask = st.set_mask, base_tag = st.base_tag;
  const i32 ls = st.line_shift, set_shift = st.set_shift;
  for (size_t si = begin; si < end; ++si) {
    u64 line = stream.addr[si] >> ls;
    const u64 last = (stream.addr[si] + stream.len[si] - 1) >> ls;
    stats.accesses += last - line + 1;
    const u64 dirty = stream.write[si] != 0 ? 0x80 : 0;
    // Cut at set wraps: the rebased tag is constant within a segment.
    while (line <= last) {
      const u64 set = line & set_mask;
      const u64 n = std::min(last - line + 1, sets - set);
      run(tags + set * 8, aux + set * 8, n, ((line >> set_shift) - base_tag) & 0xFF, dirty, stats);
      line += n;
    }
  }
}

}  // namespace detail

StreamReplayer::StreamReplayer(SetAssocCache& cache, const SpanStream& stream)
    : cache_(cache), stream_(stream) {
  CELLO_CHECK_MSG(cache_.stats_.accesses == 0 && cache_.stats_.misses == 0,
                  "stream replay requires a freshly reset cache");
  // Compact-lane eligibility: the 8-way shift/mask geometry, with every tag
  // the stream can touch rebasable into the u8 lane (0xFF is the empty-way
  // sentinel).
  bool compact = cache_.assoc_ == 8 && cache_.line_shift_ >= 0 && cache_.set_shift_ >= 0 &&
                 !stream_.addr.empty();
  if (compact) {
    const u64 min_line = stream_.min_addr >> cache_.line_shift_;
    const u64 max_line = stream_.max_addr >> cache_.line_shift_;
    // Set-aligned base so rebasing shifts tags without disturbing set bits.
    const u64 base_line = min_line & ~cache_.set_mask_;
    const u64 base_tag = base_line >> cache_.set_shift_;
    const u64 max_tag = max_line >> cache_.set_shift_;
    compact = max_tag < SetAssocCache::kInvalidTag && max_tag - base_tag < 0xFF;
    if (compact) {
      state_.sets = cache_.sets_;
      state_.set_mask = cache_.set_mask_;
      state_.set_shift = cache_.set_shift_;
      state_.line_shift = cache_.line_shift_;
      state_.base_tag = static_cast<u32>(base_tag);
      state_.policy = cache_.policy_;
      // 64 B of head slack for the lane alignment, plus 64 B of tail
      // padding that keeps the masked group loads inside the allocations at
      // the last sets.
      state_.tags.assign(state_.sets * 8 + 128, 0xFF);
      state_.aux.assign(state_.sets + 16, cache_.fresh_meta() * SetAssocCache::kLane);
      replay_ = detail::avx512_runtime() ? detail::replay_spans_avx512 : detail::replay_spans_swar;
    }
  }
}

void StreamReplayer::run_steps(size_t step_begin, size_t step_end, BufferService* out) {
  if (step_begin == step_end) return;
  const u32* op_end = stream_.op_end.data();
  size_t span = step_begin == 0 ? 0 : op_end[step_begin - 1];
  for (size_t i = step_begin; i < step_end; ++i) {
    const size_t e = op_end[i];
    const CacheStats before = cache_.stats_;
    if (replay_ != nullptr) {
      replay_(state_, stream_, span, e, cache_.stats_);
    } else {
      for (size_t j = span; j < e; ++j)
        cache_.access_range(stream_.addr[j], stream_.len[j], stream_.write[j] != 0);
    }
    out[i - step_begin] = cache_.traffic_since(before);
    span = e;
  }
}

bool StreamReplayer::update_snapshot(std::vector<u8>& blob) const {
  // The blob is everything future replacement decisions can read: the tag
  // lane, the meta lane (dirty + RRPV) and the bimodal counter modulo its
  // period.  Both policies' lanes are canonical as stored (see
  // cache_replay.hpp).  Overwritten in place, so one blob is all the
  // detection ever holds.
  const bool compact = replay_ != nullptr;
  const size_t ways = cache_.sets_ * cache_.assoc_;
  const void* tags = compact ? static_cast<const void*>(state_.tag_lane())
                             : static_cast<const void*>(cache_.tags_.data());
  const size_t tag_bytes = ways * (compact ? sizeof(u8) : sizeof(u32));
  const void* meta = compact ? static_cast<const void*>(state_.aux_lane())
                             : static_cast<const void*>(cache_.meta_.data());
  const u8 phase = static_cast<u8>(cache_.fill_counter() % 32);
  const bool same = blob.size() == tag_bytes + ways + 1 &&
                    std::memcmp(blob.data(), tags, tag_bytes) == 0 &&
                    std::memcmp(blob.data() + tag_bytes, meta, ways) == 0 &&
                    blob.back() == phase;
  blob.resize(tag_bytes + ways + 1);
  std::memcpy(blob.data(), tags, tag_bytes);
  std::memcpy(blob.data() + tag_bytes, meta, ways);
  blob.back() = phase;
  return same;
}

void StreamReplayer::write_back() {
  // Expand the compact lanes back into the cache's own so flush(),
  // contains() and valid_lines() behave exactly as after a direct run: the
  // tags widen, the meta lane has the same layout.
  // Locals, so the compiler can see the loop writes nothing it reads and
  // vectorize it.
  const size_t n = state_.sets * 8;
  const u8* in = state_.tag_lane();
  u32* out = cache_.tags_.data();
  const u32 base = state_.base_tag;
  for (size_t i = 0; i < n; ++i)
    out[i] = in[i] == 0xFF ? SetAssocCache::kInvalidTag : base + in[i];
  std::memcpy(cache_.meta_.data(), state_.aux_lane(), n);
}

void StreamReplayer::run(std::vector<BufferService>& services) {
  const u64 P = stream_.prefix_steps;
  const u64 L = stream_.period_steps;
  const u64 N = stream_.period_count;
  services.resize(stream_.schedule_steps);
  BufferService* const out = services.data();
  run_steps(0, P, out);

  // The period block, one occurrence at a time, until an occurrence leaves
  // the replacement state where it found it.  From that fixed point every
  // remaining occurrence starts from the same state, so it repeats the last
  // one's traffic exactly: the four counters advance by its delta per
  // skipped occurrence (the BRRIP fill counter is the miss count, so it
  // advances with them) and per-op services copy.
  std::vector<u8> snapshot;
  if (L != 0 && N != 0) update_snapshot(snapshot);
  CacheStats& st = cache_.stats_;
  u64 executed = 0;
  while (executed < N) {
    const CacheStats start = st;
    run_steps(P, P + L, out + P + executed * L);
    ++executed;
    if (!snapshot.empty() && update_snapshot(snapshot)) {
      const u64 rest = N - executed;
      st.accesses += (st.accesses - start.accesses) * rest;
      st.misses += (st.misses - start.misses) * rest;
      st.evictions += (st.evictions - start.evictions) * rest;
      st.writebacks += (st.writebacks - start.writebacks) * rest;
      break;
    }
  }
  occurrences_replayed_ = executed;
  for (u64 o = executed; o < N; ++o)
    std::copy_n(out + P + (executed - 1) * L, L, out + P + o * L);
  run_steps(P + L, P + L + stream_.suffix_steps, out + P + N * L);
  if (replay_ != nullptr) write_back();
}

}  // namespace cello::cache
