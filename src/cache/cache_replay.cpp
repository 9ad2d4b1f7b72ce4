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
      // +64B / +8 words of tail padding keep the masked group loads inside
      // the allocations at the last sets.
      state_.tags.assign(state_.sets * 8 + 64, 0xFF);
      state_.aux.assign(state_.sets + 8, state_.policy == Policy::Lru
                                             ? 0x0706050403020100ull   // identity ranks
                                             : 0x0303030303030303ull); // clean, distant
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

namespace {

/// Canonicalize one LRU set: emit valid (tag, dirty) pairs in recency order,
/// invalid ways last, ranks re-seated as the identity permutation.
///
/// LRU outcomes are invariant under way permutation — a hit is a tag lookup,
/// the eviction victim is the rank-7 *tag*, and fills into invalid ways pick
/// by way index but only decide placement, never traffic.  Identical access
/// sequences therefore drive permuted states to permuted (equivalent) states
/// forever: raw way-major blobs never repeat even when the replacement state
/// has converged.  The canonical form is the unique equivalent concrete state
/// with ranks 0..7 seated at ways 0..7; under it the stack property makes
/// CG-style periodic streams converge after one or two occurrences.  BRRIP
/// gets no such form — its RRPV==3 victim scan picks the lowest way *index*,
/// so placement does change future traffic.
template <typename TagT>
void canonicalize_lru_set(const TagT* tags_in, u64 rank_word, TagT invalid, u8 dirty_bit,
                          TagT* tags_out, u8* rank_out) {
  TagT by_rank_tag[8];
  u8 by_rank_dirty[8];
  u8 by_rank_valid[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  for (int w = 0; w < 8; ++w) {
    const u8 a = static_cast<u8>(rank_word >> (8 * w));
    const u8 r = a & 7;
    by_rank_tag[r] = tags_in[w];
    by_rank_dirty[r] = a & dirty_bit;
    by_rank_valid[r] = tags_in[w] != invalid;
  }
  int pos = 0;
  for (int r = 0; r < 8; ++r) {
    if (!by_rank_valid[r]) continue;
    tags_out[pos] = by_rank_tag[r];
    rank_out[pos] = static_cast<u8>(pos) | by_rank_dirty[r];
    ++pos;
  }
  for (; pos < 8; ++pos) {
    tags_out[pos] = invalid;
    rank_out[pos] = static_cast<u8>(pos);
  }
}

}  // namespace

bool StreamReplayer::update_snapshot(std::vector<u8>& blob) const {
  // The blob is everything future replacement decisions can read: tags, the
  // recency/RRPV + dirty lane, and the bimodal counter modulo its period.
  // LRU lanes are canonicalized (see canonicalize_lru_set); mru_way_ is a
  // probe-order hint — it cannot change any outcome, and including it would
  // hide real fixed points.  Overwritten in place, so one blob is all the
  // detection ever holds.
  bool same = !blob.empty();
  size_t at = 0;
  auto put = [&](const void* src, size_t n) {
    same = same && std::memcmp(blob.data() + at, src, n) == 0;
    std::memcpy(blob.data() + at, src, n);
    at += n;
  };
  if (compact_) {
    const size_t nt = state_.sets * 8;
    blob.resize(nt + nt + 1);
    if (state_.policy == Policy::Lru) {
      for (u64 s = 0; s < state_.sets; ++s) {
        u8 lane[16];
        canonicalize_lru_set<u8>(&state_.tags[s * 8], state_.aux[s], u8{0xFF}, u8{0x40}, lane,
                                 lane + 8);
        put(lane, sizeof(lane));
      }
    } else {
      put(state_.tags.data(), nt);
      put(state_.aux.data(), nt);
    }
    const u8 phase = static_cast<u8>(state_.counter % 32);
    put(&phase, 1);
    return same;
  }
  const size_t nt = cache_.sets_ * 8 * sizeof(u32);
  const size_t na = cache_.sets_ * 8;  // rank words and meta bytes: 8B per set
  blob.resize(nt + na + 1);
  if (cache_.policy_ == Policy::Lru) {
    for (u64 s = 0; s < cache_.sets_; ++s) {
      u32 tags[8];
      u8 ranks[8];
      canonicalize_lru_set<u32>(&cache_.tags32_[s * 8], cache_.lru_rank_[s],
                                SetAssocCache::kInvalidTag32,
                                static_cast<u8>(SetAssocCache::kRankDirty), tags, ranks);
      put(tags, sizeof(tags));
      put(ranks, sizeof(ranks));
    }
  } else {
    put(cache_.tags32_.data(), nt);
    put(cache_.meta_.data(), na);
  }
  const u8 phase = static_cast<u8>(cache_.brrip_insert_counter_ % 32);
  put(&phase, 1);
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
  // BRRIP), so the absolute counter is recoverable from the final stats.
  if (compact_) {
    if (state_.policy == Policy::Brrip) state_.counter = state_.s.misses;
  } else if (cache_.policy_ == Policy::Brrip) {
    cache_.brrip_insert_counter_ = cache_.stats_.misses;
  }
}

void StreamReplayer::write_back() {
  // Expand the compact state back into the cache's own lanes so flush(),
  // contains(), valid_lines() and stats() behave exactly as after a direct
  // run.  (mru_way_ stays at its reset value: it is a probe hint only.)
  const size_t n = state_.sets * 8;
  for (size_t i = 0; i < n; ++i) {
    const u8 t8 = state_.tags[i];
    cache_.tags32_[i] =
        t8 == 0xFF ? SetAssocCache::kInvalidTag32 : state_.base_tag + t8;
  }
  if (state_.policy == Policy::Lru) {
    std::memcpy(cache_.lru_rank_.data(), state_.aux.data(), state_.sets * sizeof(u64));
  } else {
    std::memcpy(cache_.meta_.data(), state_.aux.data(), state_.sets * 8);
    cache_.brrip_insert_counter_ = state_.s.misses;
  }
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
  for (u64 o = executed; o < N; ++o)
    std::copy_n(out + P + (executed - 1) * L, L, out + P + o * L);
  run_steps(P + L, P + L + spans_.suffix_steps, out + P + N * L);
  if (compact_) write_back();
}

}  // namespace cello::cache
