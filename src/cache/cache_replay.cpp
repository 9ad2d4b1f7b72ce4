#include "cache/cache_replay.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"

namespace cello::cache {

StreamReplayer::StreamReplayer(SetAssocCache& cache, const SpanStream& stream)
    : cache_(cache), stream_(stream) {
  CELLO_CHECK_MSG(cache_.stats_.accesses == 0 && cache_.stats_.misses == 0,
                  "stream replay requires a freshly reset cache");
  // Compact-engine eligibility: the 8-way shift/mask geometry on an AVX-512
  // host, with every tag the stream can touch rebasable into the u8 lane
  // (0xFF is the empty-way sentinel).
  bool compact = cache_.assoc_ == 8 && cache_.line_shift_ >= 0 && cache_.set_shift_ >= 0 &&
                 !stream_.addr.empty() && detail::avx512_runtime();
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
    }
  }
  compact_ = compact;
}

void StreamReplayer::run_steps(size_t step_begin, size_t step_end, BufferService* out) {
  if (step_begin == step_end) return;
  const u32* op_end = stream_.op_end.data();
  const Addr* addr = stream_.addr.data();
  const u32* len = stream_.len.data();
  const size_t total = op_end[step_end - 1];
  size_t span = step_begin == 0 ? 0 : op_end[step_begin - 1];
  for (size_t i = step_begin; i < step_end; ++i) {
    const size_t e = op_end[i];
    const CacheStats before = cache_.stats_;
    if (compact_) {
      detail::replay_spans_avx512(state_, stream_, span, e, cache_.stats_);
    } else {
      for (size_t j = span; j < e; ++j) {
        // Look a few spans ahead: pulls the sets about to be probed toward
        // the host caches (no simulated effect).
        if (j + 4 < total) cache_.prefetch_range(addr[j + 4], len[j + 4]);
        cache_.access_range(addr[j], len[j], stream_.write[j] != 0);
      }
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
  const size_t ways = cache_.sets_ * cache_.assoc_;
  const void* tags = compact_ ? static_cast<const void*>(state_.tag_lane())
                              : static_cast<const void*>(cache_.tags_.data());
  const size_t tag_bytes = ways * (compact_ ? sizeof(u8) : sizeof(u32));
  const void* meta = compact_ ? static_cast<const void*>(state_.aux_lane())
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
  if (compact_) write_back();
}

}  // namespace cello::cache
