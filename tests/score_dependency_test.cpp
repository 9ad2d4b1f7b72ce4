// Tests for the Algorithm 2 dependency classifier: adjacent rules, delayed
// hold vs. writeback on transitive edges, multicast detection, and the
// expected classification of the paper's workloads (Fig. 7).
#include <gtest/gtest.h>

#include "score/dependency.hpp"
#include "workloads/cg.hpp"
#include "workloads/gnn.hpp"
#include "workloads/resnet.hpp"

namespace {

using namespace cello;
using ir::EinsumOp;
using ir::OpKind;
using ir::OpRank;
using ir::TensorDag;
using ir::TensorDesc;
using score::DepKind;

TensorDesc skewed(const std::string& name, i64 m, i64 n) {
  TensorDesc t;
  t.name = name;
  t.ranks = {"m", "n"};
  t.dims = {m, n};
  return t;
}

/// Chain builder: ops with chosen dominance connected linearly; `extra`
/// inputs after the chain operand add further (e.g. transitive) edges.
struct ChainBuilder {
  TensorDag dag;
  ir::TensorId last_tensor = ir::kInvalidTensor;
  i64 m = 100000, n = 16;

  ir::OpId add(const std::string& name, ir::Dominance dom, OpKind kind = OpKind::TensorMac,
               const std::vector<ir::TensorId>& extra = {}) {
    const ir::TensorId out = dag.add_tensor(skewed("t_" + name, m, n));
    EinsumOp op;
    op.name = name;
    op.kind = kind;
    op.output = out;
    if (last_tensor != ir::kInvalidTensor) op.inputs = {last_tensor};
    for (const ir::TensorId t : extra) op.inputs.push_back(t);
    switch (dom) {
      case ir::Dominance::Uncontracted:
        op.ranks = {OpRank{"m", m, false, -1}, OpRank{"j", n, true, -1},
                    OpRank{"n", n, false, -1}};
        break;
      case ir::Dominance::Contracted:
        op.ranks = {OpRank{"m", m, true, -1}, OpRank{"n'", n, false, -1},
                    OpRank{"n", n, false, -1}};
        break;
      case ir::Dominance::Balanced:
        op.ranks = {OpRank{"m", 784, false, -1}, OpRank{"n", 512, true, -1},
                    OpRank{"o", 128, false, -1}};
        break;
    }
    last_tensor = out;
    return dag.add_op(op);
  }

  /// The edge from `src` into `dst`.
  ir::EdgeId edge(ir::OpId src, ir::OpId dst) const {
    for (const ir::EdgeId e : dag.out_edges(src))
      if (dag.edge(e).dst == dst) return e;
    ADD_FAILURE() << "no edge " << src << " -> " << dst;
    return -1;
  }
};

TEST(Classify, UncontractedToSharedIsPipelineable) {
  ChainBuilder b;
  b.add("u1", ir::Dominance::Uncontracted);
  b.add("u2", ir::Dominance::Uncontracted);
  const auto c = score::classify(b.dag);
  EXPECT_EQ(c.edge_kind[0], DepKind::Pipelineable);
}

TEST(Classify, ContractedSourceIsSequential) {
  ChainBuilder b;
  b.add("c1", ir::Dominance::Contracted);
  b.add("u1", ir::Dominance::Uncontracted);
  const auto c = score::classify(b.dag);
  EXPECT_EQ(c.edge_kind[0], DepKind::Sequential);
}

TEST(Classify, InverseSourceIsSequential) {
  ChainBuilder b;
  b.add("inv", ir::Dominance::Uncontracted, OpKind::Inverse);
  b.add("u1", ir::Dominance::Uncontracted);
  const auto c = score::classify(b.dag);
  EXPECT_EQ(c.edge_kind[0], DepKind::Sequential);
}

TEST(Classify, UnsharedDominanceIsSequential) {
  // Destination's dominant rank does not index the edge tensor.
  TensorDag dag;
  const auto t0 = dag.add_tensor(skewed("t0", 100000, 16));
  const auto t1 = dag.add_tensor(skewed("t1", 100000, 16));
  EinsumOp p;
  p.name = "p";
  p.output = t0;
  p.ranks = {OpRank{"m", 100000, false, -1}, OpRank{"n", 16, false, -1}};
  const auto po = dag.add_op(p);
  EinsumOp q;  // dominant rank "z" is not a rank of t0
  q.name = "q";
  q.inputs = {t0};
  q.output = t1;
  q.ranks = {OpRank{"z", 1000000, false, -1}, OpRank{"m", 100000, true, -1},
             OpRank{"n", 16, false, -1}};
  const auto qo = dag.add_op(q);
  ASSERT_EQ(dag.edges().size(), 1u);
  EXPECT_EQ(dag.edge(0).src, po);
  const auto c = score::classify(dag);
  EXPECT_EQ(c.edge_kind[0], DepKind::Sequential);
  EXPECT_TRUE(score::dominance_unshared(dag.op(qo), dag.tensor(t0)));
}

TEST(Classify, TransitiveOverPipelineChainIsDelayedHold) {
  // a -> b -> c all pipelineable, plus transitive a -> c.
  ChainBuilder b;
  const auto a = b.add("a", ir::Dominance::Uncontracted);
  const auto ta = b.last_tensor;
  b.add("b", ir::Dominance::Uncontracted);
  // c also consumes ta (transitive edge).
  const auto c_op = b.add("c", ir::Dominance::Uncontracted, OpKind::TensorMac, {ta});
  const auto e = b.edge(a, c_op);
  ASSERT_GE(e, 0);
  const auto cls = score::classify(b.dag);
  EXPECT_EQ(cls.edge_kind[e], DepKind::DelayedHold);
}

TEST(Classify, TransitiveOverContractedHopIsDelayedWriteback) {
  // a -> C -> c with contracted middle node: a -> c must be written back.
  ChainBuilder b;
  const auto a = b.add("a", ir::Dominance::Uncontracted);
  const auto ta = b.last_tensor;
  b.add("mid", ir::Dominance::Contracted);
  const auto c_op = b.add("c", ir::Dominance::Uncontracted, OpKind::TensorMac, {ta});
  const auto e = b.edge(a, c_op);
  ASSERT_GE(e, 0);
  const auto cls = score::classify(b.dag);
  EXPECT_EQ(cls.edge_kind[e], DepKind::DelayedWriteback);
}

TEST(Classify, MulticastCountsDirectEdgesOnly) {
  // One producer feeding two parallel consumers directly.
  ChainBuilder b;
  const auto a = b.add("a", ir::Dominance::Uncontracted);
  const auto ta = b.last_tensor;
  // Two independent consumers of ta.
  for (int i = 0; i < 2; ++i) {
    const auto out = b.dag.add_tensor(skewed("out" + std::to_string(i), b.m, b.n));
    EinsumOp op;
    op.name = "cons" + std::to_string(i);
    op.inputs = {ta};
    op.output = out;
    op.ranks = {OpRank{"m", b.m, false, -1}, OpRank{"j", b.n, true, -1},
                OpRank{"n", b.n, false, -1}};
    const auto o = b.dag.add_op(op);
    EXPECT_GE(b.edge(a, o), 0);
  }
  const auto cls = score::classify(b.dag);
  EXPECT_EQ(cls.numcast[a], 2);
  EXPECT_TRUE(cls.parallel_multicast[a]);
}

// ---- scheduled classifier on the paper's workloads ---------------------------

TEST(ClassifyScheduled, CgFirstIterationMatchesFig7) {
  workloads::CgShape shape;
  shape.m = 100000;
  shape.n = 16;
  shape.nnz = 900000;
  shape.iterations = 2;
  const auto dag = workloads::build_cg_dag(shape);
  const auto cls = score::classify_scheduled(dag, dag.topo_order());

  auto kind_of = [&](const std::string& src, const std::string& dst) {
    for (const auto& e : dag.edges())
      if (dag.op(e.src).name == src && dag.op(e.dst).name == dst) return cls.edge_kind[e.id];
    ADD_FAILURE() << "no edge " << src << " -> " << dst;
    return DepKind::Sequential;
  };

  EXPECT_EQ(kind_of("1@1", "2a@1"), DepKind::Pipelineable);
  EXPECT_EQ(kind_of("1@1", "4@1"), DepKind::DelayedWriteback);  // S
  EXPECT_EQ(kind_of("4@1", "5@1"), DepKind::Pipelineable);      // R
  EXPECT_EQ(kind_of("4@1", "7@1"), DepKind::DelayedWriteback);  // R
  EXPECT_EQ(kind_of("2a@1", "2b@1"), DepKind::Sequential);      // contracted source
  EXPECT_EQ(kind_of("2b@1", "3@1"), DepKind::Sequential);       // inverse source
  EXPECT_EQ(kind_of("5@1", "6@1"), DepKind::Sequential);        // contracted source
  EXPECT_EQ(kind_of("7@1", "1@2"), DepKind::Pipelineable);      // P into next iter
  EXPECT_EQ(kind_of("7@1", "2a@2"), DepKind::DelayedHold);      // P held through op 1
  EXPECT_EQ(kind_of("7@1", "3@2"), DepKind::DelayedWriteback);  // P delayed
  EXPECT_EQ(kind_of("3@1", "3@2"), DepKind::DelayedWriteback);  // X self-dependency
  EXPECT_EQ(kind_of("4@1", "4@2"), DepKind::DelayedWriteback);  // R cross-iteration
}

TEST(ClassifyScheduled, ResNetSkipIsDelayedHold) {
  const auto dag = workloads::build_resnet_block_dag({});
  const auto cls = score::classify_scheduled(dag, dag.topo_order());
  bool found_skip = false;
  for (const auto& e : dag.edges()) {
    if (dag.op(e.src).name == "conv0" && dag.op(e.dst).name == "add") {
      EXPECT_EQ(cls.edge_kind[e.id], DepKind::DelayedHold);
      found_skip = true;
    } else {
      EXPECT_EQ(cls.edge_kind[e.id], DepKind::Pipelineable)
          << dag.op(e.src).name << " -> " << dag.op(e.dst).name;
    }
  }
  EXPECT_TRUE(found_skip);
}

TEST(ClassifyScheduled, GnnEdgeIsPipelineable) {
  const auto dag = workloads::build_gnn_dag({2708, 9464, 1433, 7});
  const auto cls = score::classify_scheduled(dag, dag.topo_order());
  ASSERT_EQ(dag.edges().size(), 1u);
  EXPECT_EQ(cls.edge_kind[0], DepKind::Pipelineable);
}

TEST(ClassifyScheduled, EveryEdgeGetsClassified) {
  workloads::CgShape shape;
  shape.m = 50000;
  shape.n = 8;
  shape.nnz = 400000;
  shape.iterations = 5;
  const auto dag = workloads::build_cg_dag(shape);
  const auto cls = score::classify_scheduled(dag, dag.topo_order());
  EXPECT_EQ(cls.edge_kind.size(), dag.edges().size());
  EXPECT_EQ(cls.numcast.size(), dag.ops().size());
}

TEST(ClassifyScheduled, DistantEdgesNeverPipelineable) {
  workloads::CgShape shape;
  shape.m = 50000;
  shape.n = 8;
  shape.nnz = 400000;
  shape.iterations = 4;
  const auto dag = workloads::build_cg_dag(shape);
  const auto order = dag.topo_order();
  const auto cls = score::classify_scheduled(dag, order);
  for (const auto& e : dag.edges()) {
    if (dag.schedule_distance(e, order) > 1) {
      EXPECT_NE(cls.edge_kind[e.id], DepKind::Pipelineable)
          << dag.op(e.src).name << " -> " << dag.op(e.dst).name;
    }
  }
}

TEST(ClassifyScheduled, RejectsNonTopologicalOrder) {
  const auto dag = workloads::build_gnn_dag({100, 500, 16, 4});
  std::vector<ir::OpId> reversed = dag.topo_order();
  std::reverse(reversed.begin(), reversed.end());
  EXPECT_THROW(score::classify_scheduled(dag, reversed), Error);
}

TEST(Classify, LiteralAndScheduledAgreeOnChains) {
  // On a pure chain the schedule follows the longest path, so both notions
  // of transitivity coincide.
  ChainBuilder b;
  b.add("a", ir::Dominance::Uncontracted);
  b.add("b", ir::Dominance::Uncontracted);
  b.add("c", ir::Dominance::Uncontracted);
  const auto c1 = score::classify(b.dag);
  const auto c2 = score::classify_scheduled(b.dag, b.dag.topo_order());
  EXPECT_EQ(c1.edge_kind, c2.edge_kind);
}

TEST(Classify, ToStringCoverage) {
  EXPECT_STREQ(score::to_string(DepKind::Sequential), "sequential");
  EXPECT_STREQ(score::to_string(DepKind::Pipelineable), "pipelineable");
  EXPECT_STREQ(score::to_string(DepKind::DelayedHold), "delayed_hold");
  EXPECT_STREQ(score::to_string(DepKind::DelayedWriteback), "delayed_writeback");
}

}  // namespace
