// Tests for CHORD: PRELUDE fill/spill, RIFF tensor-granularity replacement,
// the Fig. 9 scenario, index-table bookkeeping, and randomized invariants.
#include <gtest/gtest.h>

#include "chord/chord.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "workloads/dag_builder.hpp"

namespace {

using namespace cello;
using chord::ChordBuffer;
using chord::TensorMeta;

TensorMeta meta(i32 id, Bytes bytes, i32 uses, i64 dist, Addr start = 0) {
  TensorMeta m;
  m.id = id;
  m.name = cello::workloads::numbered("T", id);
  m.start_addr = start ? start : 0x1000'0000ull + static_cast<Addr>(id) * 0x100'0000ull;
  m.bytes = bytes;
  m.remaining_uses = uses;
  m.next_use_distance = dist;
  return m;
}

TEST(Prelude, TensorFitsEntirely) {
  ChordBuffer buf(1024, 16, /*riff=*/false);
  const auto r = buf.write_tensor(meta(0, 512, /*uses=*/2, /*dist=*/1));
  EXPECT_EQ(r.sram_bytes, 512u);
  EXPECT_EQ(r.dram_bytes, 0u);
  EXPECT_EQ(buf.resident_bytes(0), 512u);
  buf.check_invariants();
}

TEST(Prelude, OverflowSpillsTailToDram) {
  // Fig. 9 left: the part that could not fit goes to DRAM; the head stays.
  ChordBuffer buf(1024, 16, false);
  const auto r = buf.write_tensor(meta(0, 1500, 2, 1));
  EXPECT_EQ(r.sram_bytes, 1024u);
  EXPECT_EQ(r.dram_bytes, 476u);
  EXPECT_EQ(buf.resident_bytes(0), 1024u);
  EXPECT_GE(buf.stats().prelude_spills, 1u);
  buf.check_invariants();
}

TEST(Prelude, ReadHitsResidentPrefixOnly) {
  ChordBuffer buf(1024, 16, false);
  buf.write_tensor(meta(0, 1500, 3, 1));
  const auto r = buf.read_tensor(meta(0, 1500, 2, 1));
  EXPECT_EQ(r.sram_bytes, 1024u);  // head of the tensor (PRELUDE keeps it)
  EXPECT_EQ(r.dram_bytes, 476u);   // spilled tail re-read from DRAM
  EXPECT_EQ(buf.stats().read_misses, 1u);
}

TEST(Prelude, NoReplacementAcrossTensors) {
  // Without RIFF, a second tensor cannot evict the first.
  ChordBuffer buf(1024, 16, false);
  buf.write_tensor(meta(0, 1024, 2, 9));               // fills completely, far reuse
  const auto r = buf.write_tensor(meta(1, 512, 5, 1));  // hotter, but PRELUDE won't evict
  EXPECT_EQ(r.sram_bytes, 0u);
  EXPECT_EQ(r.dram_bytes, 512u);
  EXPECT_EQ(buf.resident_bytes(0), 1024u);
  EXPECT_EQ(buf.resident_bytes(1), 0u);
}

TEST(Riff, HigherPriorityEvictsVictimTail) {
  // Fig. 9 right: the tail of X gets evicted; the head of R is enqueued.
  ChordBuffer buf(1024, 16, /*riff=*/true);
  buf.write_tensor(meta(0, 1024, /*uses=*/1, /*dist=*/7));  // "X": far reuse
  const auto r = buf.write_tensor(meta(1, 512, /*uses=*/3, /*dist=*/1));  // "R": near reuse
  EXPECT_EQ(r.sram_bytes, 512u);
  EXPECT_EQ(r.dram_bytes, 0u);
  EXPECT_EQ(buf.resident_bytes(0), 512u);  // X lost its tail
  EXPECT_EQ(buf.resident_bytes(1), 512u);  // R resident head-first
  EXPECT_GE(buf.stats().riff_replacements, 1u);
  buf.check_invariants();
}

TEST(Riff, LowerPriorityDoesNotEvict) {
  ChordBuffer buf(1024, 16, true);
  buf.write_tensor(meta(0, 1024, 3, 1));               // hot
  const auto r = buf.write_tensor(meta(1, 512, 1, 9));  // colder: goes to DRAM
  EXPECT_EQ(r.dram_bytes, 512u);
  EXPECT_EQ(buf.resident_bytes(0), 1024u);
}

TEST(Riff, EqualPriorityDoesNotEvict) {
  ChordBuffer buf(1024, 16, true);
  buf.write_tensor(meta(0, 1024, 2, 3));
  const auto r = buf.write_tensor(meta(1, 512, 2, 3));
  EXPECT_EQ(r.dram_bytes, 512u);  // strict priority required
}

TEST(Riff, DistanceBeatsFrequency) {
  ChordBuffer buf(1024, 16, true);
  buf.write_tensor(meta(0, 1024, /*uses=*/10, /*dist=*/7));  // frequent but far
  const auto r = buf.write_tensor(meta(1, 256, /*uses=*/2, /*dist=*/1));  // near
  EXPECT_EQ(r.sram_bytes, 256u);
  EXPECT_EQ(buf.resident_bytes(0), 768u);
}

TEST(Riff, DeadTensorLosesToEverything) {
  ChordBuffer buf(1024, 16, true);
  buf.write_tensor(meta(0, 1024, /*uses=*/3, /*dist=*/2));
  buf.read_tensor(meta(0, 1024, /*remaining=*/0, /*dist=*/-1));  // last read: now dead
  const auto r = buf.write_tensor(meta(1, 512, 1, 8));
  EXPECT_EQ(r.sram_bytes, 512u);
  EXPECT_EQ(buf.resident_bytes(0), 512u);
}

TEST(Riff, StealsFromMultipleVictims) {
  ChordBuffer buf(1024, 16, true);
  buf.write_tensor(meta(0, 512, 1, 9));
  buf.write_tensor(meta(1, 512, 1, 8));
  const auto r = buf.write_tensor(meta(2, 1024, 5, 1));  // needs both victims
  EXPECT_EQ(r.sram_bytes, 1024u);
  EXPECT_EQ(buf.resident_bytes(0), 0u);
  EXPECT_EQ(buf.resident_bytes(1), 0u);
  buf.check_invariants();
}

TEST(Chord, ReadAllocatesForFutureUses) {
  // An external tensor (e.g. the sparse A) installs on first read.
  ChordBuffer buf(1024, 16, true);
  const auto first = buf.read_tensor(meta(0, 800, /*uses=*/9, /*dist=*/8));
  EXPECT_EQ(first.dram_bytes, 800u);  // cold
  const auto second = buf.read_tensor(meta(0, 800, 8, 8));
  EXPECT_EQ(second.sram_bytes, 800u);  // now resident
  EXPECT_EQ(second.dram_bytes, 0u);
}

TEST(Chord, ReadWithoutFutureUseDoesNotAllocate) {
  ChordBuffer buf(1024, 16, true);
  buf.read_tensor(meta(0, 800, /*uses=*/0, /*dist=*/-1));
  EXPECT_EQ(buf.resident_bytes(0), 0u);
  EXPECT_TRUE(buf.entries().empty());
}

TEST(Chord, RetireFreesSpace) {
  ChordBuffer buf(1024, 16, true);
  buf.write_tensor(meta(0, 1024, 2, 1));
  EXPECT_EQ(buf.free_bytes(), 0u);
  buf.retire(0);
  EXPECT_EQ(buf.free_bytes(), 1024u);
  EXPECT_TRUE(buf.entries().empty());
}

TEST(Chord, RewriteOverwritesInPlace) {
  ChordBuffer buf(2048, 16, true);
  buf.write_tensor(meta(0, 1000, 3, 2));
  const auto r = buf.write_tensor(meta(0, 1000, 2, 2));  // new version, same base
  EXPECT_EQ(r.sram_bytes, 1000u);
  EXPECT_EQ(r.dram_bytes, 0u);
  EXPECT_EQ(buf.occupied_bytes(), 1000u);  // no double allocation
}

TEST(Chord, EntryLimitSendsOverflowToDram) {
  ChordBuffer buf(1u << 20, 16, true, /*max_entries=*/2);
  buf.write_tensor(meta(0, 64, 2, 1));
  buf.write_tensor(meta(1, 64, 2, 1));
  const auto r = buf.write_tensor(meta(2, 64, 2, 1));
  EXPECT_EQ(r.dram_bytes, 64u);
  EXPECT_EQ(buf.entries().size(), 2u);
}

TEST(Chord, IndexTableBookkeeping) {
  // Fig. 10: start/end indices are word positions in the data array and
  // resident slices are contiguous in queue order.
  ChordBuffer buf(4096, 16, true);
  buf.write_tensor(meta(0, 1024, 4, 2));
  buf.write_tensor(meta(1, 512, 3, 1));
  ASSERT_EQ(buf.entries().size(), 2u);
  const chord::RiffEntry& e0 = buf.entries()[0];
  const chord::RiffEntry& e1 = buf.entries()[1];
  EXPECT_EQ(e0.id, 0);
  EXPECT_EQ(e1.id, 1);
  EXPECT_EQ(e0.start_index, 0);
  EXPECT_EQ(e0.end_index, 256);  // 1024 B / 4 B words
  EXPECT_EQ(e1.start_index, 256);
  EXPECT_EQ(e1.end_index, 384);
  EXPECT_EQ(e0.end_chord, e0.start_tensor + 1024);
  EXPECT_EQ(e0.end_tensor, e0.start_tensor + 1024);
}

TEST(Chord, StatsTrafficConservation) {
  ChordBuffer buf(1024, 16, true);
  const auto w = buf.write_tensor(meta(0, 1500, 2, 1));
  EXPECT_EQ(w.sram_bytes + w.dram_bytes, 1500u);
  const auto r = buf.read_tensor(meta(0, 1500, 1, 1));
  EXPECT_EQ(r.sram_bytes + r.dram_bytes, 1500u);
}

// ---- randomized invariants (property test) ----------------------------------

struct ChordProp {
  Bytes capacity;
  bool riff;
};

class ChordPropertyTest : public ::testing::TestWithParam<ChordProp> {};

TEST_P(ChordPropertyTest, InvariantsHoldUnderRandomTraces) {
  const auto [capacity, riff] = GetParam();
  ChordBuffer buf(capacity, 16, riff);
  Rng rng(riff ? 101 : 202);

  constexpr i32 kTensors = 12;
  for (int step = 0; step < 3000; ++step) {
    const i32 id = static_cast<i32>(rng.bounded(kTensors));
    const Bytes bytes = 16 * (1 + rng.bounded(200));
    const i32 uses = static_cast<i32>(rng.bounded(8));
    const i64 dist = uses == 0 ? -1 : static_cast<i64>(1 + rng.bounded(10));
    const double dice = rng.uniform();
    if (dice < 0.45) {
      const auto r = buf.write_tensor(meta(id, bytes, uses, dist));
      ASSERT_EQ(r.sram_bytes + r.dram_bytes, bytes);
    } else if (dice < 0.9) {
      const auto r = buf.read_tensor(meta(id, bytes, uses, dist));
      ASSERT_EQ(r.sram_bytes + r.dram_bytes, bytes);
    } else {
      buf.retire(id);
    }
    ASSERT_NO_THROW(buf.check_invariants()) << "step " << step;
    ASSERT_LE(buf.occupied_bytes(), capacity);
  }
}

INSTANTIATE_TEST_SUITE_P(
    CapacityAndPolicy, ChordPropertyTest,
    ::testing::Values(ChordProp{1024, true}, ChordProp{1024, false}, ChordProp{8192, true},
                      ChordProp{8192, false}, ChordProp{64 * 1024, true}),
    [](const ::testing::TestParamInfo<ChordProp>& info) {
      return (info.param.riff ? std::string("riff_") : std::string("prelude_")) +
             std::to_string(info.param.capacity);
    });

}  // namespace
