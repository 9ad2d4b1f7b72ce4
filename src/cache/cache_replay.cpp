#include "cache/cache_replay.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"

namespace cello::cache {

namespace {

CacheStats stats_add(const CacheStats& a, const CacheStats& b) {
  CacheStats r;
  r.accesses = a.accesses + b.accesses;
  r.hits = a.hits + b.hits;
  r.misses = a.misses + b.misses;
  r.evictions = a.evictions + b.evictions;
  r.writebacks = a.writebacks + b.writebacks;
  r.dram_read_bytes = a.dram_read_bytes + b.dram_read_bytes;
  r.dram_write_bytes = a.dram_write_bytes + b.dram_write_bytes;
  r.tag_lookups = a.tag_lookups + b.tag_lookups;
  r.data_accesses = a.data_accesses + b.data_accesses;
  return r;
}

CacheStats stats_sub(const CacheStats& a, const CacheStats& b) {
  CacheStats r;
  r.accesses = a.accesses - b.accesses;
  r.hits = a.hits - b.hits;
  r.misses = a.misses - b.misses;
  r.evictions = a.evictions - b.evictions;
  r.writebacks = a.writebacks - b.writebacks;
  r.dram_read_bytes = a.dram_read_bytes - b.dram_read_bytes;
  r.dram_write_bytes = a.dram_write_bytes - b.dram_write_bytes;
  r.tag_lookups = a.tag_lookups - b.tag_lookups;
  r.data_accesses = a.data_accesses - b.data_accesses;
  return r;
}

CacheStats stats_scale(const CacheStats& a, u64 m) {
  CacheStats r;
  r.accesses = a.accesses * m;
  r.hits = a.hits * m;
  r.misses = a.misses * m;
  r.evictions = a.evictions * m;
  r.writebacks = a.writebacks * m;
  r.dram_read_bytes = a.dram_read_bytes * m;
  r.dram_write_bytes = a.dram_write_bytes * m;
  r.tag_lookups = a.tag_lookups * m;
  r.data_accesses = a.data_accesses * m;
  return r;
}

}  // namespace

StreamReplayer::StreamReplayer(SetAssocCache& cache, const ReplaySpans& spans)
    : cache_(cache), spans_(spans) {
  CELLO_CHECK_MSG(cache_.stats_.accesses == 0 && cache_.stats_.misses == 0,
                  "stream replay requires a freshly reset cache");
  // Compact-engine eligibility: the 8-way shift/mask geometry on an AVX-512
  // host, with every tag the stream can touch rebasable into the u8 lane
  // (0xFF is the empty-way sentinel).
  bool compact = cache_.fast8_ && cache_.line_shift_ >= 0 && cache_.set_shift_ >= 0 &&
                 spans_.addr != nullptr && detail::avx512_runtime();
  if (compact) {
    const u64 min_line = spans_.min_addr >> cache_.line_shift_;
    const u64 max_line = spans_.max_addr >> cache_.line_shift_;
    // Set-aligned base so rebasing shifts tags without disturbing set bits.
    const u64 base_line = min_line & ~cache_.set_mask_;
    const u64 base_tag = base_line >> cache_.set_shift_;
    const u64 max_tag = max_line >> cache_.set_shift_;
    compact = max_tag < SetAssocCache::kInvalidTag32 && max_tag - base_tag < 0xFF;
    if (compact) {
      state_.sets = cache_.sets_;
      state_.set_mask = cache_.set_mask_;
      state_.set_shift = cache_.set_shift_;
      state_.line_shift = cache_.line_shift_;
      state_.line_bytes = cache_.line_bytes_;
      state_.base_tag = static_cast<u32>(base_tag);
      state_.policy = cache_.policy_;
      // 64 B of head slack for the lane alignment, plus 64 B of tail
      // padding that keeps the masked group loads inside the allocations at
      // the last sets.
      state_.tags.assign(state_.sets * 8 + 128, 0xFF);
      state_.aux.assign(state_.sets + 16, cache_.fresh_meta() * SetAssocCache::kLane);
    }
  }
  compact_ = compact;
  // The generic (non-8-way) layout stamps recency with a monotonic clock, so
  // its state never revisits itself — no point snapshotting.
  can_fast_forward_ = compact_ || cache_.fast8_;
}

void StreamReplayer::run_steps(size_t step_begin, size_t step_end, ReplayService* out) {
  if (step_begin == step_end) return;
  const u32* op_end = spans_.op_end;
  size_t span = step_begin == 0 ? 0 : op_end[step_begin - 1];
  if (compact_) {
    for (size_t i = step_begin; i < step_end; ++i) {
      const size_t e = op_end[i];
      const Bytes r0 = state_.s.dram_read, w0 = state_.s.dram_write;
      const u64 f0 = state_.s.misses - state_.s.evictions;
      detail::replay_spans_avx512(state_, spans_.addr, spans_.len, spans_.write, span, e);
      out[i - step_begin] = {state_.s.dram_read - r0, state_.s.dram_write - w0,
                             state_.s.misses - state_.s.evictions - f0};
      span = e;
    }
    return;
  }
  const size_t total = op_end[step_end - 1];
  for (size_t i = step_begin; i < step_end; ++i) {
    const size_t e = op_end[i];
    const CacheStats& st = cache_.stats_;
    const Bytes r0 = st.dram_read_bytes, w0 = st.dram_write_bytes;
    const u64 f0 = st.misses - st.evictions;
    for (size_t j = span; j < e; ++j) {
      // Look a few spans ahead: pulls the sets about to be probed toward the
      // host caches (no simulated effect).
      if (j + 4 < total) cache_.prefetch_range(spans_.addr[j + 4], spans_.len[j + 4]);
      cache_.access_range(spans_.addr[j], spans_.len[j], spans_.write[j] != 0);
    }
    out[i - step_begin] = {st.dram_read_bytes - r0, st.dram_write_bytes - w0,
                           st.misses - st.evictions - f0};
    span = e;
  }
}

bool StreamReplayer::update_snapshot(std::vector<u8>& blob) const {
  // The blob is everything future replacement decisions can read: the tag
  // lane, the meta lane (dirty + RRPV) and the bimodal counter modulo its
  // period.  Both policies' lanes are canonical as stored (see
  // cache_replay.hpp); mru_way_ is a probe-order hint — it cannot change any
  // outcome, and including it would hide real fixed points.  Overwritten in
  // place, so one blob is all the detection ever holds.
  const u64 sets = cache_.sets_;
  const void* tags = compact_ ? static_cast<const void*>(state_.tag_lane())
                              : static_cast<const void*>(cache_.tags32_.data());
  const size_t tag_bytes = sets * 8 * (compact_ ? sizeof(u8) : sizeof(u32));
  const void* meta = compact_ ? static_cast<const void*>(state_.aux_lane())
                              : static_cast<const void*>(cache_.meta_.data());
  const u8 phase =
      static_cast<u8>((compact_ ? state_.fill_counter() : cache_.brrip_insert_counter_) % 32);
  const bool same = blob.size() == tag_bytes + sets * 8 + 1 &&
                    std::memcmp(blob.data(), tags, tag_bytes) == 0 &&
                    std::memcmp(blob.data() + tag_bytes, meta, sets * 8) == 0 &&
                    blob.back() == phase;
  blob.resize(tag_bytes + sets * 8 + 1);
  std::memcpy(blob.data(), tags, tag_bytes);
  std::memcpy(blob.data() + tag_bytes, meta, sets * 8);
  blob.back() = phase;
  return same;
}

CacheStats StreamReplayer::current_stats() const {
  if (!compact_) return cache_.stats_;
  CacheStats c;
  c.accesses = c.tag_lookups = c.data_accesses = state_.s.lines;
  c.hits = state_.s.hits;
  c.misses = state_.s.misses;
  c.evictions = state_.s.evictions;
  c.writebacks = state_.s.writebacks;
  c.dram_read_bytes = state_.s.dram_read;
  c.dram_write_bytes = state_.s.dram_write;
  return c;
}

void StreamReplayer::set_stats(const CacheStats& st) {
  if (!compact_) {
    cache_.stats_ = st;
    return;
  }
  state_.s.lines = st.accesses;
  state_.s.hits = st.hits;
  state_.s.misses = st.misses;
  state_.s.evictions = st.evictions;
  state_.s.writebacks = st.writebacks;
  state_.s.dram_read = st.dram_read_bytes;
  state_.s.dram_write = st.dram_write_bytes;
}

void StreamReplayer::fast_forward(u64 remaining, const CacheStats& per_occurrence) {
  set_stats(stats_add(current_stats(), stats_scale(per_occurrence, remaining)));
  // The bimodal fill counter bumps exactly once per miss (and only under
  // BRRIP), so the absolute counter is recoverable from the final stats (the
  // compact engine derives it from them throughout).
  if (!compact_ && cache_.policy_ == Policy::Brrip)
    cache_.brrip_insert_counter_ = cache_.stats_.misses;
}

void StreamReplayer::write_back() {
  // Expand the compact state back into the cache's own lanes so flush(),
  // contains(), valid_lines() and stats() behave exactly as after a direct
  // run: the tags widen, the meta lane has the same layout.  (mru_way_
  // stays at its reset value: it is a probe hint only.)
  // Locals, so the compiler can see the loop writes nothing it reads and
  // vectorize it.
  const size_t n = state_.sets * 8;
  const u8* in = state_.tag_lane();
  u32* out = cache_.tags32_.data();
  const u32 base = state_.base_tag;
  for (size_t i = 0; i < n; ++i)
    out[i] = in[i] == 0xFF ? SetAssocCache::kInvalidTag32 : base + in[i];
  std::memcpy(cache_.meta_.data(), state_.aux_lane(), n);
  cache_.brrip_insert_counter_ = state_.fill_counter();
  cache_.stats_ = current_stats();
}

void StreamReplayer::run(std::vector<ReplayService>& services) {
  const u64 P = spans_.prefix_steps;
  const u64 L = spans_.period_steps;
  const u64 N = spans_.period_count;
  services.resize(spans_.schedule_steps);
  ReplayService* const out = services.data();
  run_steps(0, P, out);

  // The period block, one occurrence at a time, until an occurrence leaves
  // the replacement state where it found it.  From that fixed point every
  // remaining occurrence starts from the same state, so it repeats the last
  // one's traffic exactly: stats advance arithmetically, per-op services copy.
  std::vector<u8> snapshot;
  if (can_fast_forward_ && L != 0 && N != 0) update_snapshot(snapshot);
  u64 executed = 0;
  while (executed < N) {
    const CacheStats start = current_stats();
    run_steps(P, P + L, out + P + executed * L);
    ++executed;
    if (!snapshot.empty() && update_snapshot(snapshot)) {
      fast_forward(N - executed, stats_sub(current_stats(), start));
      break;
    }
  }
  occurrences_replayed_ = executed;
  for (u64 o = executed; o < N; ++o)
    std::copy_n(out + P + (executed - 1) * L, L, out + P + o * L);
  run_steps(P + L, P + L + spans_.suffix_steps, out + P + N * L);
  if (compact_) write_back();
}

}  // namespace cello::cache
