// Tests for the set-associative cache baselines: LRU semantics against a
// naive reference model, BRRIP scan resistance, and stats accounting.
#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <tuple>

#include "cache/cache.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

namespace {

using namespace cello;
using cache::Policy;
using cache::SetAssocCache;

TEST(Cache, ConstructionValidatesGeometry) {
  SetAssocCache c(1024, 16, 4, Policy::Lru);
  EXPECT_EQ(c.num_sets(), 16u);
  EXPECT_EQ(c.associativity(), 4u);
  EXPECT_THROW(SetAssocCache(1000, 16, 7, Policy::Lru), Error);  // not divisible
}

TEST(Cache, HitAfterFill) {
  SetAssocCache c(1024, 16, 4, Policy::Lru);
  c.access(0x100, false);
  EXPECT_EQ(c.stats().misses, 1u);
  c.access(0x104, false);  // same line
  EXPECT_EQ(c.stats().hits(), 1u);
  EXPECT_TRUE(c.contains(0x100));
}

TEST(Cache, LruEvictsOldest) {
  // 1 set of 2 ways: capacity 32B, line 16B, assoc 2 -> 1 set.
  SetAssocCache c(32, 16, 2, Policy::Lru);
  c.access(0 * 16, false);
  c.access(1 * 16, false);
  c.access(0 * 16, false);  // touch line 0 -> line 1 is LRU
  c.access(2 * 16, false);  // evicts line 1
  EXPECT_TRUE(c.contains(0 * 16));
  EXPECT_FALSE(c.contains(1 * 16));
  EXPECT_TRUE(c.contains(2 * 16));
}

TEST(Cache, DirtyEvictionWritesBack) {
  SetAssocCache c(32, 16, 2, Policy::Lru);
  c.access(0 * 16, true);   // dirty
  c.access(1 * 16, false);
  c.access(2 * 16, false);  // evicts dirty line 0
  EXPECT_EQ(c.stats().writebacks, 1u);
  EXPECT_EQ(c.traffic_since({}).dram_write, 16u);
}

TEST(Cache, FlushDrainsDirtyLines) {
  SetAssocCache c(64, 16, 4, Policy::Lru);
  c.access(0, true);
  c.access(16, true);
  c.access(32, false);
  c.flush();
  EXPECT_EQ(c.stats().writebacks, 2u);
  EXPECT_FALSE(c.contains(0));
}

TEST(Cache, AccessRangeTouchesEveryLine) {
  SetAssocCache c(1024, 16, 4, Policy::Lru);
  c.access_range(8, 40, false);  // lines 0,1,2
  EXPECT_EQ(c.stats().accesses, 3u);
  c.access_range(0, 0, false);  // empty range: no access
  EXPECT_EQ(c.stats().accesses, 3u);
}

TEST(Cache, StatsConservation) {
  Rng rng(21);
  SetAssocCache c(512, 16, 4, Policy::Lru);
  for (int i = 0; i < 5000; ++i) c.access(rng.bounded(4096) & ~0xFull, rng.uniform() < 0.3);
  const auto& s = c.stats();
  // Nothing invalidates mid-run: every miss not evicting filled an empty way.
  EXPECT_EQ(s.misses - s.evictions, c.valid_lines());
  EXPECT_LE(s.writebacks, s.evictions);
}

TEST(Cache, BrripResistsScanning) {
  // Hot set of 4 lines in one set + a long streaming scan through the same
  // set: BRRIP should keep more of the hot set resident than LRU.
  const Bytes capacity = 8 * 16;  // 1 set, 8 ways
  auto run = [&](Policy p) {
    SetAssocCache c(capacity, 16, 8, p);
    u64 hot_hits = 0;
    for (int round = 0; round < 200; ++round) {
      for (int h = 0; h < 4; ++h) {
        const u64 before = c.stats().hits();
        c.access(static_cast<Addr>(h) * 16, false);
        hot_hits += c.stats().hits() - before;
      }
      // Scan: 16 distinct lines that map to the same (only) set.
      for (int sline = 0; sline < 16; ++sline)
        c.access(0x10000 + (static_cast<Addr>(round * 16 + sline)) * 16, false);
    }
    return hot_hits;
  };
  const u64 lru_hits = run(Policy::Lru);
  const u64 brrip_hits = run(Policy::Brrip);
  EXPECT_GT(brrip_hits, lru_hits);
}

// ---- property test: LRU cache vs a naive reference model -------------------

struct CacheGeom {
  Bytes capacity;
  u32 line;
  u32 assoc;
};

class LruReferenceTest : public ::testing::TestWithParam<CacheGeom> {};

TEST_P(LruReferenceTest, MatchesNaiveModelOnRandomTrace) {
  const auto g = GetParam();
  SetAssocCache c(g.capacity, g.line, g.assoc, Policy::Lru);
  const u64 sets = (g.capacity / g.line) / g.assoc;

  // Reference: per set, a recency-ordered deque of tags.
  std::map<u64, std::deque<u64>> ref;
  u64 ref_hits = 0, ref_misses = 0;

  Rng rng(12345);
  for (int i = 0; i < 20000; ++i) {
    const Addr addr = (rng.bounded(256) * g.line);
    const u64 line_id = addr / g.line;
    const u64 set = line_id % sets;
    const u64 tag = line_id / sets;
    auto& dq = ref[set];
    auto it = std::find(dq.begin(), dq.end(), tag);
    if (it != dq.end()) {
      ++ref_hits;
      dq.erase(it);
      dq.push_front(tag);
    } else {
      ++ref_misses;
      dq.push_front(tag);
      if (dq.size() > g.assoc) dq.pop_back();
    }
    c.access(addr, false);
    ASSERT_EQ(c.stats().hits(), ref_hits) << "at access " << i;
    ASSERT_EQ(c.stats().misses, ref_misses) << "at access " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, LruReferenceTest,
    // Two geometries have a non-power-of-two set count (12) and a
    // non-power-of-two line size (24B, 10 sets): they pin the division
    // fallback path to the same semantics as the shift/mask fast path.  The
    // last is one fully associative 128-way set: the way loops have no width
    // limit (no way mask to wrap at 32 or 64 ways).
    ::testing::Values(CacheGeom{256, 16, 2}, CacheGeom{512, 16, 4}, CacheGeom{1024, 16, 8},
                      CacheGeom{2048, 32, 4}, CacheGeom{768, 16, 4}, CacheGeom{960, 24, 4},
                      CacheGeom{2048, 16, 128}),
    [](const ::testing::TestParamInfo<CacheGeom>& info) {
      return "cap" + std::to_string(info.param.capacity) + "_l" +
             std::to_string(info.param.line) + "_a" + std::to_string(info.param.assoc);
    });

TEST(Cache, PolicyNames) {
  EXPECT_STREQ(cache::to_string(Policy::Lru), "LRU");
  EXPECT_STREQ(cache::to_string(Policy::Brrip), "BRRIP");
}

TEST(Cache, AccessRangeSpansSetWraparound) {
  // 16 sets of 4 ways.  A range crossing line 16 wraps the set index back to
  // 0 while bumping the tag; every covered line must land in its own set.
  SetAssocCache c(1024, 16, 4, Policy::Lru);
  ASSERT_EQ(c.num_sets(), 16u);
  c.access_range(14 * 16, 5 * 16, false);  // lines 14..18: sets 14,15,0,1,2
  EXPECT_EQ(c.stats().accesses, 5u);
  EXPECT_EQ(c.stats().misses, 5u);
  for (u64 line = 14; line <= 18; ++line) EXPECT_TRUE(c.contains_line(line)) << line;
  // Line 16 (set 0, tag 1) must not alias line 0 (set 0, tag 0).
  EXPECT_FALSE(c.contains_line(0));
  // A range spanning several full wraps touches every line exactly once.
  SetAssocCache d(1024, 16, 4, Policy::Lru);
  d.access_range(0, 48 * 16, false);  // 48 lines over 16 sets: tags 0..2
  EXPECT_EQ(d.stats().accesses, 48u);
  EXPECT_EQ(d.stats().misses, 48u);
  for (u64 line = 0; line < 48; ++line) EXPECT_TRUE(d.contains_line(line)) << line;
}

TEST(Cache, BrripAgingSaturates) {
  // One set, 4 ways, all hot (RRPV==0 after hits).  A fill then needs three
  // aging rounds to surface an RRPV==3 victim; the search must terminate and
  // evict exactly one resident line.
  SetAssocCache c(64, 16, 4, Policy::Brrip);
  for (Addr l = 0; l < 4; ++l) c.access(l * 16, false);
  for (Addr l = 0; l < 4; ++l) c.access(l * 16, false);  // hits: all RRPV -> 0
  EXPECT_EQ(c.stats().hits(), 4u);
  c.access(100 * 16, false);
  EXPECT_EQ(c.stats().evictions, 1u);
  EXPECT_TRUE(c.contains_line(100));
  int resident = 0;
  for (u64 l = 0; l < 4; ++l) resident += c.contains_line(l) ? 1 : 0;
  EXPECT_EQ(resident, 3);
}

TEST(Cache, FlushWritebackCounts) {
  SetAssocCache c(1024, 16, 4, Policy::Lru);
  c.access_range(0, 5 * 16, true);    // 5 dirty lines
  c.access_range(5 * 16, 3 * 16, false);  // 3 clean lines
  c.flush();
  EXPECT_EQ(c.stats().writebacks, 5u);
  EXPECT_EQ(c.traffic_since({}).dram_write, 5u * 16);
  // Everything is invalid now; a second flush drains nothing.
  c.flush();
  EXPECT_EQ(c.stats().writebacks, 5u);
  // Re-dirtying a line after flush writes back again.
  c.access(0, true);
  c.flush();
  EXPECT_EQ(c.stats().writebacks, 6u);
}

TEST(Cache, BulkAccessMatchesPerLineLoop) {
  // The coalesced access_lines walk must be indistinguishable — stats and
  // final contents — from the naive per-line access() loop, for both
  // replacement policies, on random (addr, len, rw) traces.
  for (Policy p : {Policy::Lru, Policy::Brrip}) {
    SetAssocCache bulk(2048, 16, 4, p);
    SetAssocCache perline(2048, 16, 4, p);
    Rng rng(97);
    for (int i = 0; i < 2000; ++i) {
      const Addr addr = rng.bounded(8192);
      const Bytes len = 1 + rng.bounded(400);
      const bool w = rng.uniform() < 0.4;
      bulk.access_range(addr, len, w);
      const Addr first = addr / 16, last = (addr + len - 1) / 16;
      for (Addr line = first; line <= last; ++line) perline.access(line * 16, w);

      const auto& a = bulk.stats();
      const auto& b = perline.stats();
      ASSERT_EQ(a.accesses, b.accesses) << "op " << i;
      ASSERT_EQ(a.misses, b.misses) << "op " << i;
      ASSERT_EQ(a.evictions, b.evictions) << "op " << i;
      ASSERT_EQ(a.writebacks, b.writebacks) << "op " << i;
    }
    bulk.flush();
    perline.flush();
    EXPECT_EQ(bulk.stats().writebacks, perline.stats().writebacks) << to_string(p);
  }
}

}  // namespace
