// Tests for SCORE scheduling: loop orders, pipeline realization, swizzle
// minimization, residency binding and the reuse metadata handed to CHORD.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "score/reuse_index.hpp"
#include "score/schedule.hpp"
#include "score/search_space.hpp"
#include "workloads/cg.hpp"
#include "workloads/gnn.hpp"
#include "workloads/resnet.hpp"

namespace {

using namespace cello;
using score::DepKind;
using score::Residency;

workloads::CgShape cg_shape() {
  workloads::CgShape s;
  s.m = 100000;
  s.n = 16;
  s.nnz = 900000;
  s.iterations = 3;
  return s;
}

const score::Schedule& cg_schedule() {
  static const auto dag = workloads::build_cg_dag(cg_shape());
  static const auto sched = score::build_schedule(dag);
  return sched;
}

const ir::TensorDag& cg_dag() {
  static const auto dag = workloads::build_cg_dag(cg_shape());
  return dag;
}

i64 find_step(const ir::TensorDag& dag, const score::Schedule& s, const std::string& op_name) {
  for (size_t i = 0; i < s.steps.size(); ++i)
    if (dag.op(s.steps[i].op).name == op_name) return static_cast<i64>(i);
  return -1;
}

TEST(Schedule, StepsCoverAllOpsInProgramOrder) {
  const auto& dag = cg_dag();
  const auto& s = cg_schedule();
  ASSERT_EQ(s.steps.size(), dag.ops().size());
  for (size_t i = 0; i < s.steps.size(); ++i) EXPECT_EQ(s.steps[i].op, static_cast<i32>(i));
}

TEST(Schedule, DominantRankOutermost) {
  const auto& dag = cg_dag();
  const auto& s = cg_schedule();
  // op 2a (contracted-dominant, not a pipe source) keeps m outermost so the
  // large tensors stream while Delta accumulates in the RF.
  const i64 step = find_step(dag, s, "2a@1");
  ASSERT_GE(step, 0);
  EXPECT_EQ(s.steps[step].loop_order.front(), "m");
}

TEST(Schedule, PipeSourceKeepsUncontractedOutermost) {
  const auto& dag = cg_dag();
  const auto& s = cg_schedule();
  const i64 step = find_step(dag, s, "7@1");  // sources the P pipeline
  ASSERT_GE(step, 0);
  EXPECT_EQ(s.steps[step].loop_order.front(), "m");
}

TEST(Schedule, CgRealizedPipelineEdges) {
  const auto& dag = cg_dag();
  const auto& s = cg_schedule();
  int realized = 0;
  for (const auto& e : dag.edges()) {
    if (!s.edge_realized[e.id]) continue;
    ++realized;
    const auto k = s.deps.edge_kind[e.id];
    EXPECT_TRUE(k == DepKind::Pipelineable || k == DepKind::DelayedHold);
  }
  // Per full iteration: 1->2a (S), 4->5 (R), 7->1' (P), 7->2a' (P hold).
  EXPECT_GE(realized, 8);
}

TEST(Schedule, CgResidencyBinding) {
  const auto& dag = cg_dag();
  const auto& s = cg_schedule();
  for (const auto& t : dag.tensors()) {
    const std::string base = workloads::base_name(t.name);
    if (base == "Delta" || base == "Lambda" || base == "Gamma" || base == "Phi") {
      if (!dag.consumers(t.id).empty()) {
        EXPECT_EQ(s.residency[t.id], Residency::RegisterFile) << t.name;
      }
    }
    if ((base == "S" || base == "R") && !dag.consumers(t.id).empty()) {
      EXPECT_EQ(s.residency[t.id], Residency::Chord) << t.name;
    }
    if (base == "X" && !dag.consumers(t.id).empty()) {
      EXPECT_EQ(s.residency[t.id], Residency::Chord) << t.name;
    }
  }
}

TEST(Schedule, CgHasNoSwizzles) {
  // SCORE picks the m-major layout for every skewed tensor: no transforms.
  EXPECT_EQ(cg_schedule().swizzle_count, 0);
}

TEST(Schedule, GnnIntermediatePipelined) {
  const auto dag = workloads::build_gnn_dag({2708, 9464, 1433, 7});
  const auto s = score::build_schedule(dag);
  ASSERT_EQ(dag.edges().size(), 1u);
  EXPECT_TRUE(s.edge_realized[0]);
  const auto h = dag.edge(0).tensor;
  EXPECT_EQ(s.residency[h], Residency::PipelineBuffer);
}

TEST(Schedule, ResNetAllEdgesRealized) {
  const auto dag = workloads::build_resnet_block_dag({});
  const auto s = score::build_schedule(dag);
  for (const auto& e : dag.edges()) EXPECT_TRUE(s.edge_realized[e.id]);
  // Feature maps live in the pipeline buffer.
  for (const auto& t : dag.tensors()) {
    if (t.name == "T0" || t.name == "T1") {
      EXPECT_EQ(s.residency[t.id], Residency::PipelineBuffer) << t.name;
    }
  }
}

TEST(Schedule, PipeliningOffDemotesEverything) {
  const auto dag = workloads::build_gnn_dag({2708, 9464, 1433, 7});
  score::ScheduleOptions opts;
  opts.enable_pipelining = false;
  const auto s = score::build_schedule(dag, opts);
  EXPECT_FALSE(s.edge_realized[0]);
  EXPECT_EQ(s.deps.edge_kind[0], DepKind::Sequential);
}

TEST(Schedule, PipelineGroupsSplitAtUnrealizedEdges) {
  const auto& dag = cg_dag();
  const auto& s = cg_schedule();
  // 1@1 and 2a@1 share a group (realized S edge); 2a@1 and 2b@1 do not.
  const i64 s1 = find_step(dag, s, "1@1");
  const i64 s2a = find_step(dag, s, "2a@1");
  const i64 s2b = find_step(dag, s, "2b@1");
  EXPECT_EQ(s.steps[s1].pipeline_group, s.steps[s2a].pipeline_group);
  EXPECT_NE(s.steps[s2a].pipeline_group, s.steps[s2b].pipeline_group);
}

TEST(Schedule, ReuseMetadataForChord) {
  const auto& dag = cg_dag();
  const auto& s = cg_schedule();
  // One reuse slot per tensor (identity base mapping), so the index answers
  // per-tensor RIFF queries.
  std::vector<i32> base_of(dag.tensors().size());
  std::iota(base_of.begin(), base_of.end(), 0);
  const auto index = score::ReuseIndex::build(dag, s, base_of, base_of.size());
  score::ReuseCursor cursor;
  cursor.reset(index);
  // X@1 produced at step of op 3@1, consumed only by 3@2 (8 steps later).
  ir::TensorId x1 = ir::kInvalidTensor;
  for (const auto& t : dag.tensors())
    if (t.name == "X@1") x1 = t.id;
  ASSERT_NE(x1, ir::kInvalidTensor);
  const i64 produce_step = find_step(dag, s, "3@1");
  EXPECT_EQ(cursor.remaining_after(index, x1, produce_step), 1);
  EXPECT_EQ(cursor.next_distance(index, x1, produce_step), 8);
  // After its single consumption there is no further use.
  const i64 consume_step = find_step(dag, s, "3@2");
  EXPECT_EQ(cursor.remaining_after(index, x1, consume_step), 0);
  EXPECT_EQ(cursor.next_distance(index, x1, consume_step), -1);
}

// ---- search-space model (Sec. VI-B) -----------------------------------------

TEST(SearchSpace, BinomialAndFactorial) {
  EXPECT_NEAR(score::log10_binomial(5, 2), std::log10(10.0), 1e-9);
  EXPECT_NEAR(score::log10_factorial(5), std::log10(120.0), 1e-9);
}

TEST(SearchSpace, SliceAllocationScalesAsSizeToTensors) {
  score::SearchSpaceModel m{1 << 20, 5};
  // C(size+4, 4) ~ size^4 / 4!: just over 22 decimal digits.
  const double l = m.log10_slice_allocation();
  EXPECT_GT(l, 20.0);
  EXPECT_LT(l, 25.0);
}

TEST(SearchSpace, OpByOpMatchesPaperOrder) {
  // ~10^15 for the 7-operator CG DAG on a 2^20-word buffer.
  const double l = score::SearchSpaceModel::log10_op_by_op(1 << 20, 7);
  EXPECT_GT(l, 14.0);
  EXPECT_LT(l, 16.5);
}

TEST(SearchSpace, ChordIsTiny) {
  EXPECT_LE(score::SearchSpaceModel::chord_choices(80, 162), 300.0);
}

TEST(SearchSpace, OrderingMatchesPaperStory) {
  score::SearchSpaceModel m{1 << 20, 5};
  const std::vector<i64> tensors(5, 1 << 20), slices(5, 1 << 18);
  const double op_by_op = score::SearchSpaceModel::log10_op_by_op(1 << 20, 7);
  const double dag_static = m.log10_slice_allocation() + m.log10_block_arrangements() +
                            m.log10_contiguous_choices(tensors, slices);
  const double time_varying = m.log10_time_varying(dag_static, 2);
  const double chord = std::log10(score::SearchSpaceModel::chord_choices(80, 162));
  EXPECT_LT(chord, 3.0);
  EXPECT_LT(op_by_op, dag_static);
  EXPECT_GT(time_varying, 80.0);  // the paper's headline 10^80 scale
}

TEST(SearchSpace, LineArrangementsAreAstronomical) {
  score::SearchSpaceModel m{1 << 20, 5};
  EXPECT_GT(m.log10_line_arrangements(), 1e6);  // size! is beyond astronomical
}

TEST(SearchSpace, ElementChoicesExceedContiguous) {
  score::SearchSpaceModel m{1 << 20, 2};
  const std::vector<i64> tensors = {1 << 12, 1 << 12};
  const std::vector<i64> slices = {1 << 10, 1 << 10};
  EXPECT_GT(m.log10_element_choices(tensors, slices),
            m.log10_contiguous_choices(tensors, slices));
}

}  // namespace
