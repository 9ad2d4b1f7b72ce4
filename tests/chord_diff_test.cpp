// Differential testing: the fast operand-granularity ChordBuffer used by the
// simulator vs. the word-granular ChordRefModel that transcribes the Fig. 10
// hardware pseudocode.  Identical traces must produce identical traffic and
// identical resident prefixes.
#include <gtest/gtest.h>

#include "chord/chord.hpp"
#include "oracles/chord_ref.hpp"
#include "common/rng.hpp"
#include "workloads/dag_builder.hpp"

namespace {

using namespace cello;
using chord::ChordBuffer;
using chord::ChordRefModel;
using chord::TensorMeta;

TensorMeta meta(i32 id, Bytes bytes, i32 uses, i64 dist) {
  TensorMeta m;
  m.id = id;
  m.name = cello::workloads::numbered("T", id);
  m.start_addr = 0x1000'0000ull + static_cast<Addr>(id) * 0x100'0000ull;
  m.bytes = bytes;
  m.remaining_uses = uses;
  m.next_use_distance = dist;
  return m;
}

TEST(ChordDiff, SimpleWriteReadAgree) {
  ChordBuffer fast(1024, 16, true);
  ChordRefModel ref(1024, 4, true);
  const auto m = meta(0, 1500, 2, 1);
  const auto wf = fast.write_tensor(m);
  const auto wr = ref.write_tensor(m);
  EXPECT_EQ(wf.sram_bytes, wr.sram_bytes);
  EXPECT_EQ(wf.dram_bytes, wr.dram_bytes);
  const auto rf = fast.read_tensor(m);
  const auto rr = ref.read_tensor(m);
  EXPECT_EQ(rf.sram_bytes, rr.sram_bytes);
  EXPECT_EQ(rf.dram_bytes, rr.dram_bytes);
}

TEST(ChordDiff, RiffEvictionAgrees) {
  ChordBuffer fast(1024, 16, true);
  ChordRefModel ref(1024, 4, true);
  fast.write_tensor(meta(0, 1024, 1, 7));
  ref.write_tensor(meta(0, 1024, 1, 7));
  const auto m = meta(1, 512, 3, 1);
  const auto wf = fast.write_tensor(m);
  const auto wr = ref.write_tensor(m);
  EXPECT_EQ(wf.sram_bytes, wr.sram_bytes);
  EXPECT_EQ(fast.resident_bytes(0), ref.resident_bytes(0));
  EXPECT_EQ(fast.resident_bytes(1), ref.resident_bytes(1));
}

TEST(ChordDiff, RefPhysicalLayoutHoldsPrefixes) {
  ChordRefModel ref(1024, 4, true);
  ref.write_tensor(meta(0, 512, 2, 3));
  ref.write_tensor(meta(1, 256, 2, 2));
  ref.write_tensor(meta(2, 512, 4, 1));  // evicts tails of 0 and/or 1
  ref.check_invariants();
  EXPECT_EQ(ref.occupied_bytes(), 1024u);
}

struct DiffParam {
  Bytes capacity;
  bool riff;
  u64 seed;
};

class ChordDifferentialTest : public ::testing::TestWithParam<DiffParam> {};

TEST_P(ChordDifferentialTest, RandomTracesAgreeExactly) {
  const auto [capacity, riff, seed] = GetParam();
  ChordBuffer fast(capacity, 16, riff);
  ChordRefModel ref(capacity, 4, riff);
  Rng rng(seed);

  constexpr i32 kTensors = 8;
  std::vector<Bytes> sizes(kTensors);
  for (auto& s : sizes) s = 4 * (1 + rng.bounded(400));  // word-aligned

  for (int step = 0; step < 1500; ++step) {
    const i32 id = static_cast<i32>(rng.bounded(kTensors));
    const i32 uses = static_cast<i32>(rng.bounded(6));
    const i64 dist = uses == 0 ? -1 : static_cast<i64>(1 + rng.bounded(9));
    const auto m = meta(id, sizes[id], uses, dist);
    const double dice = rng.uniform();
    if (dice < 0.45) {
      const auto a = fast.write_tensor(m);
      const auto b = ref.write_tensor(m);
      ASSERT_EQ(a.sram_bytes, b.sram_bytes) << "write step " << step;
      ASSERT_EQ(a.dram_bytes, b.dram_bytes) << "write step " << step;
    } else if (dice < 0.9) {
      const auto a = fast.read_tensor(m);
      const auto b = ref.read_tensor(m);
      ASSERT_EQ(a.sram_bytes, b.sram_bytes) << "read step " << step;
      ASSERT_EQ(a.dram_bytes, b.dram_bytes) << "read step " << step;
    } else {
      fast.retire(id);
      ref.retire(id);
    }
    for (i32 t = 0; t < kTensors; ++t)
      ASSERT_EQ(fast.resident_bytes(t), ref.resident_bytes(t))
          << "tensor " << t << " at step " << step;
    ASSERT_NO_THROW(ref.check_invariants()) << "step " << step;
    ASSERT_NO_THROW(fast.check_invariants()) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Traces, ChordDifferentialTest,
    ::testing::Values(DiffParam{1024, true, 1}, DiffParam{1024, false, 2},
                      DiffParam{4096, true, 3}, DiffParam{4096, true, 4},
                      DiffParam{512, true, 5}, DiffParam{16384, false, 6},
                      DiffParam{16384, true, 7}),
    [](const ::testing::TestParamInfo<DiffParam>& info) {
      return std::string(info.param.riff ? "riff" : "prelude") + "_cap" +
             std::to_string(info.param.capacity) + "_seed" + std::to_string(info.param.seed);
    });

TEST(ChordRef, CycleCountAdvances) {
  ChordRefModel ref(1024, 4, true);
  ref.write_tensor(meta(0, 512, 2, 1));
  const u64 c1 = ref.cycles();
  ref.read_tensor(meta(0, 512, 1, 1));
  EXPECT_GT(ref.cycles(), c1);
}

TEST(ChordRef, RetireReleasesSlots) {
  ChordRefModel ref(1024, 4, true);
  ref.write_tensor(meta(0, 1024, 2, 1));
  EXPECT_EQ(ref.occupied_bytes(), 1024u);
  ref.retire(0);
  EXPECT_EQ(ref.occupied_bytes(), 0u);
  ref.check_invariants();
}

}  // namespace
