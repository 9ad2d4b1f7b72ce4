// Arena-backed TensorDag lifetime + ArenaVector semantics.
//
// The payload spans of a DAG's nodes live in the DAG's own bump arena; these
// tests pin the ownership rules — copies re-intern into their own arena,
// moves keep spans valid, heap-built nodes intern on add — and walk every
// span after the originals die.  Run under the asan preset these double as
// dangling-span detectors (an aliasing bug reads freed arena chunks).
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "ir/arena.hpp"
#include "ir/dag.hpp"
#include "workloads/cg.hpp"
#include "workloads/resnet.hpp"

namespace {

using namespace cello;

workloads::CgShape small_cg() { return {4096, 8, 32768, 3, 4}; }

/// Touch every arena-resident payload byte of the DAG.
void walk_all_spans(const ir::TensorDag& dag) {
  size_t rank_chars = 0;
  i64 dim_sum = 0;
  for (const auto& t : dag.tensors()) {
    ASSERT_EQ(t.ranks.size(), t.dims.size()) << t.name;
    for (const auto& r : t.ranks) rank_chars += r.size();
    for (i64 d : t.dims) dim_sum += d;
  }
  i64 op_rank_sum = 0;
  for (const auto& op : dag.ops()) {
    for (const auto& r : op.ranks) op_rank_sum += r.effective() + static_cast<i64>(r.name.size());
    for (ir::TensorId in : op.inputs) ASSERT_GE(in, 0);
    ASSERT_GE(op.macs(), 0) << op.name;
  }
  EXPECT_GT(rank_chars, 0u);
  EXPECT_GT(dim_sum, 0);
  EXPECT_GT(op_rank_sum, 0);
}

TEST(ArenaDag, PayloadsLiveInTheDagArena) {
  const ir::TensorDag dag = workloads::build_cg_dag(small_cg());
  // Rank names, dims and operand lists all landed in the arena.
  EXPECT_GT(dag.arena().bytes_used(), 0u);
  EXPECT_GE(dag.arena().bytes_reserved(), dag.arena().bytes_used());
  walk_all_spans(dag);
}

TEST(ArenaDag, MoveKeepsSpansValid) {
  ir::TensorDag dag = workloads::build_cg_dag(small_cg());
  const std::string dot_before = dag.to_dot();
  ir::TensorDag moved = std::move(dag);
  walk_all_spans(moved);
  EXPECT_EQ(moved.to_dot(), dot_before);
}

TEST(ArenaDag, CopyOutlivesTheOriginal) {
  ir::TensorDag copy;
  std::string dot_before;
  {
    const ir::TensorDag original = workloads::build_resnet_block_dag({});
    dot_before = original.to_dot();
    copy = original;
    // The copy re-interned into its own arena; no payload is shared.
    EXPECT_GT(copy.arena().bytes_used(), 0u);
  }  // original (and its arena) destroyed here
  walk_all_spans(copy);
  EXPECT_EQ(copy.to_dot(), dot_before);
}

TEST(ArenaDag, HeapBuiltNodesInternOnAdd) {
  // The legacy construction style: free-standing nodes, no arena binding.
  ir::TensorDag dag;
  ir::TensorDesc t;
  t.name = "T";
  t.ranks = {"m", "n"};
  t.dims = {64, 16};
  const ir::TensorId tid = dag.add_tensor(t);
  ir::TensorDesc u;
  u.name = "U";
  u.ranks = {"m", "n"};
  u.dims = {64, 16};
  const ir::TensorId uid = dag.add_tensor(u);

  ir::EinsumOp op;
  op.name = "copy";
  op.inputs = {tid};
  op.output = uid;
  op.ranks = {ir::OpRank{"m", 64, false, -1}, ir::OpRank{"n", 16, false, -1}};
  dag.add_op(op);

  // `t`/`op` still own their (heap) payloads; the stored nodes are interned.
  EXPECT_EQ(t.ranks.size(), 2u);
  EXPECT_EQ(op.inputs.size(), 1u);
  EXPECT_TRUE(dag.tensor(tid).ranks.interned_in(dag.arena()));
  EXPECT_TRUE(dag.tensor(tid).dims.interned_in(dag.arena()));
  EXPECT_TRUE(dag.op(0).ranks.interned_in(dag.arena()));
  EXPECT_TRUE(dag.op(0).inputs.interned_in(dag.arena()));
  EXPECT_EQ(dag.tensor(tid).ranks[0], "m");
  EXPECT_EQ(dag.tensor(uid).dims[1], 16);
}

TEST(ArenaDag, NewTensorPathMatchesLegacyPath) {
  ir::TensorDag via_new;
  {
    ir::TensorDesc t = via_new.new_tensor();
    t.name = "T";
    t.ranks = {"m"};
    t.dims = {8};
    via_new.add_tensor(t);
    ir::EinsumOp op = via_new.new_op();
    op.name = "gen";
    op.output = 0;
    op.ranks = {ir::OpRank{"m", 8, false, -1}};
    via_new.add_op(op);
  }
  ir::TensorDag legacy;
  {
    ir::TensorDesc t;
    t.name = "T";
    t.ranks = {"m"};
    t.dims = {8};
    legacy.add_tensor(t);
    ir::EinsumOp op;
    op.name = "gen";
    op.output = 0;
    op.ranks = {ir::OpRank{"m", 8, false, -1}};
    legacy.add_op(op);
  }
  EXPECT_EQ(via_new.to_dot(), legacy.to_dot());
  EXPECT_TRUE(via_new.tensor(0).ranks.interned_in(via_new.arena()));
}

TEST(ArenaVector, GrowthAndAssignmentInBothModes) {
  // Heap mode.
  ir::ArenaVector<i32> heap;
  for (i32 i = 0; i < 100; ++i) heap.push_back(i);
  ASSERT_EQ(heap.size(), 100u);
  for (i32 i = 0; i < 100; ++i) EXPECT_EQ(heap[static_cast<size_t>(i)], i);
  heap = {7, 8, 9};
  ASSERT_EQ(heap.size(), 3u);
  EXPECT_EQ(heap.front(), 7);
  EXPECT_EQ(heap.back(), 9);
  std::vector<i32> from_vec = {1, 2, 3, 4};
  heap = std::move(from_vec);
  ASSERT_EQ(heap.size(), 4u);

  // Arena mode: growth re-bumps, contents survive, destruction frees nothing.
  ir::Arena arena;
  ir::ArenaVector<std::string> bound(&arena);
  for (int i = 0; i < 50; ++i) bound.push_back("rank" + std::to_string(i));
  ASSERT_EQ(bound.size(), 50u);
  EXPECT_EQ(bound[49], "rank49");
  EXPECT_TRUE(bound.interned_in(arena));
  EXPECT_GT(arena.bytes_used(), 0u);

  // Copying an arena-bound vector detaches it from the arena.  (`other` is
  // declared first: an ArenaVector must never outlive the arena it is
  // interned in — the TensorDag declares its arena first for this reason.)
  ir::Arena other;
  ir::ArenaVector<std::string> detached(bound);
  EXPECT_FALSE(detached.interned_in(arena));
  EXPECT_EQ(detached[10], bound[10]);

  // intern() is idempotent and re-homes heap payloads.
  detached.intern(other);
  EXPECT_TRUE(detached.interned_in(other));
  const std::string* data_before = &detached[0];
  detached.intern(other);
  EXPECT_EQ(&detached[0], data_before);  // no-op: already in this arena
}

TEST(ArenaDag, MoveAssignOverNonEmptyDagReleasesOldArenaSafely) {
  ir::TensorDag dag = workloads::build_cg_dag(small_cg());
  walk_all_spans(dag);
  // Assigning over a non-empty DAG must destroy the old nodes before the old
  // arena (asan catches the reversed order as a use-after-free).
  dag = workloads::build_resnet_block_dag({});
  walk_all_spans(dag);

  // Copy-assign over non-empty goes through the same path.
  const ir::TensorDag source = workloads::build_cg_dag({1024, 4, 8192, 2, 4});
  dag = source;
  walk_all_spans(dag);
  EXPECT_EQ(dag.to_dot(), source.to_dot());
}

TEST(ArenaVector, PushBackSelfReferenceSurvivesGrowth) {
  ir::ArenaVector<std::string> v;
  v.push_back("a-sufficiently-long-string-to-defeat-SSO-entirely-0");
  // Keep pushing v[0]; growth relocations must not invalidate the argument.
  for (int i = 0; i < 40; ++i) v.push_back(v[0]);
  for (size_t i = 0; i < v.size(); ++i) EXPECT_EQ(v[i], v[0]);
}

TEST(ArenaDag, ManyBuildDestroyCyclesAreStable) {
  for (int i = 0; i < 20; ++i) {
    const ir::TensorDag dag = workloads::build_cg_dag({1024, 4, 8192, 2, 4});
    EXPECT_EQ(dag.ops().size(), 16u);  // 8 ops per CG iteration
    walk_all_spans(dag);
  }
}

}  // namespace
