// Seeded differential test of the trace-driven cache: StreamReplayer over
// SetAssocCache against an independent ~100-line reference model (LRU as a
// recency list per set; BRRIP as an RRPV array per set with the every-32nd-
// fill long insertion).  Random span streams — 1-line gathers, short runs and
// multi-set sweeps, reads and writes — are built as prefix + a repeated
// period block + suffix, so the replayer's fixed-point fast-forward fires.
// A second, streaming family replays long sequential sweeps (8-40 set wraps,
// starting off an 8-set group boundary) on the compact engine, at small
// geometries and at the shipped 4 MiB one.
// Per-step services, final CacheStats, valid_lines(), the lines held and the
// drain's bytes must match on every geometry and engine:
//  * 8-way, power-of-two sets: the compact AVX-512 engine (where the host
//    has it) and the direct engine, toggled via CELLO_DISABLE_AVX512;
//  * 8-way with a non-power-of-two set count (direct engine);
//  * 4-way (also with a non-power-of-two line size) and 16-way (direct
//    engine, per-way loops).
// On the random periodic streams every geometry, policy and engine must
// fast-forward at least one stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "cache/cache_replay.hpp"
#include "common/rng.hpp"
#include "test_helpers.hpp"

namespace {

using namespace cello;
using cache::CacheStats;
using cache::Policy;
using test::ScopedEnv;

/// Reference write-allocate, write-back cache.  Sets and tags split the line
/// index the way SetAssocCache does (set = line % sets, tag = line / sets).
class RefCache {
 public:
  RefCache(u64 sets, u32 assoc, u32 line_bytes, Policy policy)
      : sets_(sets), assoc_(assoc), line_bytes_(line_bytes), policy_(policy), lru_(sets),
        ways_(sets * assoc) {}

  void access_range(Addr addr, u64 len, bool write) {
    for (u64 line = addr / line_bytes_; line <= (addr + len - 1) / line_bytes_; ++line) {
      ++stats.accesses;
      const u64 set = line % sets_, tag = line / sets_;
      if (policy_ == Policy::Lru)
        access_lru(set, tag, write);
      else
        access_brrip(set, tag, write);
    }
  }

  bool contains_line(u64 line) const {
    const u64 set = line % sets_, tag = line / sets_;
    for (const Way& w : lru_[set])
      if (w.tag == tag) return true;
    for (u32 i = 0; i < assoc_; ++i) {
      const Way& w = ways_[set * assoc_ + i];
      if (w.valid && w.tag == tag) return true;
    }
    return false;
  }

  u64 valid_lines() const {
    u64 n = 0;
    for (const auto& list : lru_) n += list.size();
    for (const Way& w : ways_) n += w.valid;
    return n;
  }

  u64 dirty_lines() const {
    u64 n = 0;
    for (const auto& list : lru_)
      for (const Way& w : list) n += w.dirty;
    for (const Way& w : ways_) n += w.valid && w.dirty;
    return n;
  }

  CacheStats stats;

 private:
  struct Way {
    bool valid = false;
    u64 tag = 0;
    bool dirty = false;
    int rrpv = 3;
  };

  void miss() {
    ++stats.misses;
    stats.dram_read_bytes += line_bytes_;
  }
  void evict(bool dirty) {
    ++stats.evictions;
    if (dirty) {
      ++stats.writebacks;
      stats.dram_write_bytes += line_bytes_;
    }
  }

  void access_lru(u64 set, u64 tag, bool write) {
    std::deque<Way>& list = lru_[set];  // front = most recently used
    const auto it =
        std::find_if(list.begin(), list.end(), [&](const Way& w) { return w.tag == tag; });
    if (it != list.end()) {
      ++stats.hits;
      Way w = *it;
      w.dirty = w.dirty || write;
      list.erase(it);
      list.push_front(w);
      return;
    }
    miss();
    if (list.size() == assoc_) {
      evict(list.back().dirty);
      list.pop_back();
    }
    list.push_front({true, tag, write, 0});
  }

  void access_brrip(u64 set, u64 tag, bool write) {
    Way* ways = &ways_[set * assoc_];
    for (u32 i = 0; i < assoc_; ++i)
      if (ways[i].valid && ways[i].tag == tag) {
        ++stats.hits;
        ways[i].rrpv = 0;
        ways[i].dirty = ways[i].dirty || write;
        return;
      }
    miss();
    u32 v = assoc_;
    for (u32 i = 0; i < assoc_ && v == assoc_; ++i)
      if (!ways[i].valid) v = i;
    if (v == assoc_) {
      // First way predicted distant; age the whole set until one is.
      while (v == assoc_) {
        for (u32 i = 0; i < assoc_ && v == assoc_; ++i)
          if (ways[i].rrpv == 3) v = i;
        if (v == assoc_)
          for (u32 i = 0; i < assoc_; ++i) ++ways[i].rrpv;
      }
      evict(ways[v].dirty);
    }
    ways[v] = {true, tag, write, ++fills_ % 32 == 0 ? 2 : 3};
  }

  u64 sets_;
  u32 assoc_;
  u32 line_bytes_;
  Policy policy_;
  std::vector<std::deque<Way>> lru_;  ///< LRU: recency list per set
  std::vector<Way> ways_;             ///< BRRIP: `assoc_` ways per set, in way order
  u64 fills_ = 0;
};

/// A materialized periodic span stream: prefix, one period, suffix.
struct Stream {
  std::vector<Addr> addr;
  std::vector<u32> len;
  std::vector<u8> write;
  std::vector<u32> op_end;
  u64 prefix = 0, period = 0, count = 0, suffix = 0;

  cache::ReplaySpans view() const {
    cache::ReplaySpans v;
    v.addr = addr.data();
    v.len = len.data();
    v.write = write.data();
    v.op_end = op_end.data();
    v.prefix_steps = prefix;
    v.period_steps = period;
    v.period_count = count;
    v.suffix_steps = suffix;
    v.schedule_steps = prefix + period * count + suffix;
    v.min_addr = *std::min_element(addr.begin(), addr.end());
    v.max_addr = 0;
    for (size_t i = 0; i < addr.size(); ++i)
      v.max_addr = std::max(v.max_addr, addr[i] + len[i] - 1);
    return v;
  }
};

/// Random spans over a window of `window_lines` lines starting at a
/// non-set-aligned base, so the compact engine's tag rebasing is exercised.
Stream random_stream(Rng& rng, u64 sets, u32 line_bytes, u64 window_lines) {
  Stream s;
  s.prefix = rng.bounded(4);
  s.period = 1 + rng.bounded(6);
  s.count = 2 + rng.bounded(9);
  s.suffix = rng.bounded(3);
  const Addr base = (0x4000000 + rng.bounded(5 * sets)) * line_bytes;
  const u64 steps = s.prefix + s.period + s.suffix;
  for (u64 step = 0; step < steps; ++step) {
    const u64 spans = 1 + rng.bounded(8);
    for (u64 i = 0; i < spans; ++i) {
      const u64 kind = rng.bounded(4);
      u64 lines = 1;  // a 1-line gather
      if (kind == 1) lines = 2 + rng.bounded(5);             // a short run
      if (kind == 2) lines = sets + rng.bounded(2 * sets);   // a multi-set sweep
      if (kind == 3) lines = 1 + rng.bounded(sets / 2 + 1);  // a run within one pass
      const u64 first = rng.bounded(window_lines - std::min(lines, window_lines) + 1);
      // Unaligned ends: start up to a line in, and end anywhere after that.
      const u64 lead = rng.bounded(line_bytes);
      const u64 trail = rng.bounded(lines * line_bytes - lead);
      s.addr.push_back(base + first * line_bytes + lead);
      s.len.push_back(static_cast<u32>(lines * line_bytes - lead - trail));
      s.write.push_back(rng.bounded(3) == 0);
    }
    s.op_end.push_back(static_cast<u32>(s.addr.size()));
  }
  return s;
}

struct Geometry {
  u64 sets;
  u32 line_bytes;
  u32 assoc;
};

/// Long sequential sweeps, the bulk of real replay traffic: 1-3 per step,
/// each 8-40 set wraps long and starting at a set off an 8-set group boundary
/// (so every set-wrap segment ends in a partial group), reads and writes
/// mixed, over a window of 3-10x the cache's capacity.
Stream streaming_stream(Rng& rng, const Geometry& g) {
  Stream s;
  s.prefix = rng.bounded(2);
  s.period = 1 + rng.bounded(3);
  s.count = 2 + rng.bounded(3);
  s.suffix = rng.bounded(2);
  const u64 base_line = 0x4000000 + rng.bounded(5 * g.sets);
  const u64 window_wraps = g.assoc * (3 + rng.bounded(8));
  const u64 steps = s.prefix + s.period + s.suffix;
  for (u64 step = 0; step < steps; ++step) {
    const u64 spans = 1 + rng.bounded(3);
    for (u64 i = 0; i < spans; ++i) {
      const u64 wraps = 8 + rng.bounded(std::min<u64>(33, window_wraps - 9));
      const u64 lines = wraps * g.sets + rng.bounded(g.sets);
      u64 first = rng.bounded(window_wraps * g.sets - lines - 7);
      if ((base_line + first) % 8 == 0) first += 1 + rng.bounded(7);
      s.addr.push_back((base_line + first) * g.line_bytes);
      s.len.push_back(static_cast<u32>(lines * g.line_bytes));
      s.write.push_back(rng.bounded(2) == 0);
    }
    s.op_end.push_back(static_cast<u32>(s.addr.size()));
  }
  return s;
}

struct Engine {
  const char* name;
  bool no_avx512;
};

std::string label(const Geometry& g, Policy policy, const char* engine, int n) {
  return std::string(cache::to_string(policy)) + " " + engine + " sets=" +
         std::to_string(g.sets) + " line=" + std::to_string(g.line_bytes) +
         " assoc=" + std::to_string(g.assoc) + " stream " + std::to_string(n);
}

/// Replays one stream under one geometry and policy on whichever engine the
/// environment selects and compares it with the reference; true when the
/// replay fast-forwarded.
bool check_stream(const Geometry& g, Policy policy, const Stream& s, const std::string& what) {
  cache::SetAssocCache c(g.sets * g.assoc * g.line_bytes, g.line_bytes, g.assoc, policy);
  const cache::ReplaySpans view = s.view();
  cache::StreamReplayer replayer(c, view);
  std::vector<cache::ReplayService> got;
  replayer.run(got);

  RefCache ref(g.sets, g.assoc, g.line_bytes, policy);
  std::vector<cache::ReplayService> want;
  auto run_step = [&](u64 step) {
    const CacheStats before = ref.stats;
    for (u32 i = step == 0 ? 0 : s.op_end[step - 1]; i < s.op_end[step]; ++i)
      ref.access_range(s.addr[i], s.len[i], s.write[i] != 0);
    const CacheStats& after = ref.stats;
    want.push_back({after.dram_read_bytes - before.dram_read_bytes,
                    after.dram_write_bytes - before.dram_write_bytes,
                    (after.misses - after.evictions) - (before.misses - before.evictions)});
  };
  for (u64 i = 0; i < s.prefix; ++i) run_step(i);
  for (u64 o = 0; o < s.count; ++o)
    for (u64 i = 0; i < s.period; ++i) run_step(s.prefix + i);
  for (u64 i = 0; i < s.suffix; ++i) run_step(s.prefix + s.period + i);

  EXPECT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < std::min(got.size(), want.size()); ++i)
    if (got[i].dram_read != want[i].dram_read || got[i].dram_write != want[i].dram_write ||
        got[i].fills != want[i].fills) {
      ADD_FAILURE() << what << " step " << i << ": got (" << got[i].dram_read << ", "
                    << got[i].dram_write << ", " << got[i].fills << "), want ("
                    << want[i].dram_read << ", " << want[i].dram_write << ", "
                    << want[i].fills << ")";
      break;
    }
  const CacheStats& a = c.stats();
  const CacheStats& b = ref.stats;
  EXPECT_EQ(a.accesses, b.accesses) << what;
  EXPECT_EQ(a.tag_lookups, b.accesses) << what;
  EXPECT_EQ(a.data_accesses, b.accesses) << what;
  EXPECT_EQ(a.hits, b.hits) << what;
  EXPECT_EQ(a.misses, b.misses) << what;
  EXPECT_EQ(a.evictions, b.evictions) << what;
  EXPECT_EQ(a.writebacks, b.writebacks) << what;
  EXPECT_EQ(a.dram_read_bytes, b.dram_read_bytes) << what;
  EXPECT_EQ(a.dram_write_bytes, b.dram_write_bytes) << what;
  EXPECT_EQ(c.valid_lines(), ref.valid_lines()) << what;
  // Which lines the cache holds (the compact engine rebases tags, so this
  // checks its write-back too).
  for (u64 line = view.min_addr / g.line_bytes; line <= view.max_addr / g.line_bytes; ++line)
    if (c.contains_line(line) != ref.contains_line(line)) {
      ADD_FAILURE() << what << ": line " << line << " held " << c.contains_line(line);
      break;
    }

  const Bytes written = c.stats().dram_write_bytes;
  c.flush();
  EXPECT_EQ(c.stats().dram_write_bytes - written, ref.dirty_lines() * g.line_bytes) << what;
  EXPECT_EQ(c.valid_lines(), 0u) << what;
  c.flush();  // a drained cache has nothing left to write
  EXPECT_EQ(c.stats().dram_write_bytes - written, ref.dirty_lines() * g.line_bytes) << what;
  return replayer.occurrences_replayed() < s.count;
}

/// Replays random streams under one geometry, policy and engine and compares
/// each with the reference; returns how many streams fast-forwarded.
u64 check_engine(const Geometry& g, Policy policy, const Engine& e, u64 seed) {
  std::optional<ScopedEnv> no512;
  if (e.no_avx512) no512.emplace("CELLO_DISABLE_AVX512", "1");
  Rng rng(seed);
  u64 fast_forwarded = 0;
  for (int n = 0; n < 48; ++n) {
    // Footprints from well inside the cache to several times its size.
    const u64 window = g.sets * (1 + rng.bounded(5 * g.assoc));
    const Stream s = random_stream(rng, g.sets, g.line_bytes, window);
    fast_forwarded += check_stream(g, policy, s, label(g, policy, e.name, n));
  }
  return fast_forwarded;
}

/// Replays `streams` streaming-family streams on the compact engine.
void check_streaming(const Geometry& g, Policy policy, int streams, u64 seed) {
  Rng rng(seed);
  for (int n = 0; n < streams; ++n)
    check_stream(g, policy, streaming_stream(rng, g), label(g, policy, "compact streaming", n));
}

constexpr Engine kCompact{"compact", false};
constexpr Engine kDirect{"direct", true};

TEST(CacheDiff, EightWayPowerOfTwoSetsOnEveryEngine) {
  for (const Geometry g : {Geometry{64, 64, 8}, Geometry{128, 16, 8}})
    for (const Policy p : {Policy::Lru, Policy::Brrip})
      for (const Engine& e : {kCompact, kDirect})
        EXPECT_GT(check_engine(g, p, e, 0xC0FFEE + g.sets), 0u)
            << e.name << ": no stream reached a fixed point";
}

TEST(CacheDiff, EightWayNonPowerOfTwoSets) {
  const Geometry g{48, 64, 8};
  for (const Policy p : {Policy::Lru, Policy::Brrip})
    EXPECT_GT(check_engine(g, p, kDirect, 0xBEEF), 0u) << "no stream reached a fixed point";
}

TEST(CacheDiff, FourAndSixteenWay) {
  for (const Geometry g : {Geometry{64, 32, 4}, Geometry{40, 24, 4}, Geometry{32, 64, 16}})
    for (const Policy p : {Policy::Lru, Policy::Brrip})
      EXPECT_GT(check_engine(g, p, kCompact, 0xF00D), 0u)
          << g.assoc << "-way: no stream reached a fixed point";
}

TEST(CacheDiff, AssociativityAbove64) {
  // Past the width of any way mask: the per-way loops must neither wrap nor
  // truncate a set.
  for (const Geometry g : {Geometry{4, 64, 96}, Geometry{2, 16, 128}})
    for (const Policy p : {Policy::Lru, Policy::Brrip})
      EXPECT_GT(check_engine(g, p, kDirect, 0xA550C), 0u)
          << g.assoc << "-way: no stream reached a fixed point";
}

TEST(CacheDiff, LongSweepsOnTheCompactEngine) {
  for (const Geometry g : {Geometry{64, 64, 8}, Geometry{128, 16, 8}})
    for (const Policy p : {Policy::Lru, Policy::Brrip}) check_streaming(g, p, 24, 0x5EED + g.sets);
}

TEST(CacheDiff, LongSweepsAtTheShippedGeometry) {
  // 4 MiB, 16 B lines, 8-way: the Table V cache every trace-driven preset runs.
  const Geometry g{32768, 16, 8};
  for (const Policy p : {Policy::Lru, Policy::Brrip}) check_streaming(g, p, 2, 0x5EED);
}

}  // namespace
