// Unit tests for the tensor-algebra IR: descriptors, einsum dominance, DAG
// structure and the transitivity analyses Algorithm 2 depends on.
#include <gtest/gtest.h>

#include <sstream>
#include <utility>

#include "common/error.hpp"
#include "ir/dag.hpp"
#include "workloads/cg.hpp"
#include "workloads/resnet.hpp"

namespace {

using namespace cello;
using ir::Dominance;
using ir::EinsumOp;
using ir::OpKind;
using ir::OpRank;
using ir::TensorDag;
using ir::TensorDesc;

TensorDesc dense2d(const std::string& name, i64 d0, i64 d1, Bytes word = 4) {
  TensorDesc t;
  t.name = name;
  t.ranks = {"m", "n"};
  t.dims = {d0, d1};
  t.word_bytes = word;
  return t;
}

TEST(TensorDesc, DenseBytesAndElements) {
  const TensorDesc t = dense2d("T", 100, 8);
  EXPECT_EQ(t.elements(), 800);
  EXPECT_EQ(t.bytes(), 3200u);
}

TEST(TensorDesc, SparseBytesCountValuesCoordsRowptr) {
  TensorDesc t;
  t.name = "A";
  t.ranks = {"m", "k"};
  t.dims = {1000, 1000};
  t.storage = ir::Storage::CompressedSparse;
  t.nnz = 5000;
  t.word_bytes = 4;
  // 5000 values * 4B + 5000 cols * 4B + 1001 rowptr * 4B
  EXPECT_EQ(t.bytes(), 5000u * 4 + 5000u * 4 + 1001u * 4);
  EXPECT_EQ(t.elements(), 5000);
}

TEST(TensorDesc, RankQueries) {
  const TensorDesc t = dense2d("T", 10, 20);
  EXPECT_TRUE(t.has_rank("m"));
  EXPECT_FALSE(t.has_rank("k"));
  EXPECT_EQ(t.dim_of("n"), 20);
  EXPECT_THROW(t.dim_of("zz"), Error);
}

TEST(EinsumOp, MacsFromRanksAndOverride) {
  EinsumOp op;
  op.name = "gemm";
  op.ranks = {OpRank{"m", 10, false, -1}, OpRank{"k", 20, true, -1}, OpRank{"n", 30, false, -1}};
  EXPECT_EQ(op.macs(), 6000);
  op.macs_override = 42;
  EXPECT_EQ(op.macs(), 42);
}

TEST(EinsumOp, UncontractedDominance) {
  EinsumOp op;
  op.ranks = {OpRank{"m", 1000000, false, -1}, OpRank{"k", 16, true, -1},
              OpRank{"n", 16, false, -1}};
  EXPECT_EQ(op.dominance(), Dominance::Uncontracted);
  EXPECT_EQ(op.dominant_rank().name, "m");
}

TEST(EinsumOp, ContractedDominance) {
  EinsumOp op;
  op.ranks = {OpRank{"m", 1000000, true, -1}, OpRank{"n'", 16, false, -1},
              OpRank{"n", 16, false, -1}};
  EXPECT_EQ(op.dominance(), Dominance::Contracted);
}

TEST(EinsumOp, BalancedDominance) {
  // ResNet-like conv GEMM: 784 / 512 / 128 all within the dominance ratio.
  EinsumOp op;
  op.ranks = {OpRank{"m", 784, false, -1}, OpRank{"k", 512, true, -1},
              OpRank{"n", 128, false, -1}};
  EXPECT_EQ(op.dominance(), Dominance::Balanced);
}

TEST(EinsumOp, CompressedRankUsesEffectiveExtent) {
  // SpMM: the contracted rank is compressed — effective extent is the row
  // occupancy, so the op is uncontracted-dominant (the 'U*' node of Fig. 7).
  EinsumOp op;
  op.ranks = {OpRank{"m", 100000, false, -1}, OpRank{"k", 100000, true, 9},
              OpRank{"n", 16, false, -1}};
  EXPECT_EQ(op.dominance(), Dominance::Uncontracted);
  EXPECT_EQ(op.dominant_rank().name, "m");
}

TEST(EinsumOp, ToStringCoverage) {
  EXPECT_STREQ(ir::to_string(Dominance::Uncontracted), "U");
  EXPECT_STREQ(ir::to_string(Dominance::Contracted), "C");
  EXPECT_STREQ(ir::to_string(Dominance::Balanced), "bal");
  EXPECT_STREQ(ir::to_string(OpKind::Inverse), "inverse");
}

// ---- DAG structure ----------------------------------------------------------

/// One-rank op `name` reading `ins` and writing `out`.
EinsumOp op1d(const std::string& name, std::vector<ir::TensorId> ins, ir::TensorId out) {
  EinsumOp op;
  op.name = name;
  op.inputs = std::move(ins);
  op.output = out;
  op.ranks = {OpRank{"m", 4, false, -1}};
  return op;
}

/// Diamond with a transitive shortcut:   a -> b -> c -> d,  a -> c,  a -> d.
struct DiamondFixture {
  TensorDag dag;
  ir::OpId a, b, c, d;
  ir::TensorId tin;
  ir::EdgeId shortcut = -1;

  DiamondFixture() {
    auto mk_tensor = [&](const std::string& n) { return dag.add_tensor(dense2d(n, 64, 64)); };
    const auto ta = mk_tensor("Ta"), tb = mk_tensor("Tb"), tc = mk_tensor("Tc"),
               td = mk_tensor("Td");
    tin = mk_tensor("Tin");
    auto mk_op = [&](const std::string& n, std::vector<ir::TensorId> ins, ir::TensorId out) {
      EinsumOp op;
      op.name = n;
      op.inputs = std::move(ins);
      op.output = out;
      op.ranks = {OpRank{"m", 64, false, -1}, OpRank{"n", 64, false, -1}};
      return dag.add_op(op);
    };
    a = mk_op("a", {tin}, ta);
    b = mk_op("b", {ta}, tb);
    c = mk_op("c", {ta, tb}, tc);
    d = mk_op("d", {ta, tc}, td);
    for (const ir::EdgeId e : dag.out_edges(a))
      if (dag.edge(e).dst == d) shortcut = e;
  }
};

TEST(TensorDag, AddOpDerivesOneEdgePerProducedInputInOperandOrder) {
  DiamondFixture f;
  ASSERT_EQ(f.dag.edges().size(), 5u);
  // Edges are numbered as ops arrive, each op's in operand order.
  const std::vector<std::pair<ir::OpId, ir::OpId>> want = {
      {f.a, f.b}, {f.a, f.c}, {f.b, f.c}, {f.a, f.d}, {f.c, f.d}};
  for (size_t i = 0; i < want.size(); ++i) {
    const auto& e = f.dag.edge(static_cast<ir::EdgeId>(i));
    EXPECT_EQ(e.src, want[i].first) << i;
    EXPECT_EQ(e.dst, want[i].second) << i;
    EXPECT_EQ(e.tensor, f.dag.op(e.src).output) << i;
  }
  EXPECT_EQ(f.shortcut, 3);
  EXPECT_TRUE(f.dag.tensor_edges(f.tin).empty());  // Tin has no producer: external
  EXPECT_EQ(f.dag.consumers(f.tin).size(), 1u);
}

TEST(TensorDag, RepeatedOperandGivesOneEdge) {
  // Gamma = R^T R reads R twice: one consumer entry and one edge.
  TensorDag dag;
  const auto x = dag.add_tensor(dense2d("X", 4, 4));
  const auto r = dag.add_tensor(dense2d("R", 4, 4));
  const auto gamma = dag.add_tensor(dense2d("Gamma", 4, 4));
  const auto p = dag.add_op(op1d("p", {x}, r));
  const auto g = dag.add_op(op1d("g", {r, r}, gamma));
  ASSERT_EQ(dag.edges().size(), 1u);
  EXPECT_EQ(dag.edge(0).src, p);
  EXPECT_EQ(dag.edge(0).dst, g);
  EXPECT_EQ(dag.edge(0).tensor, r);
  EXPECT_EQ(dag.out_edges(p).size(), 1u);
  EXPECT_EQ(dag.consumers(r).size(), 1u);
  EXPECT_EQ(dag.tensor_edges(r).size(), 1u);
}

TEST(TensorDag, AddOpRejectsAlreadyProducedOutput) {
  TensorDag dag;
  const auto x = dag.add_tensor(dense2d("X", 4, 4));
  const auto t = dag.add_tensor(dense2d("T", 4, 4));
  dag.add_op(op1d("p", {x}, t));
  EXPECT_THROW(dag.add_op(op1d("q", {x}, t)), Error);
  EXPECT_EQ(dag.ops().size(), 1u);  // the rejected op left no trace
  EXPECT_EQ(dag.consumers(x).size(), 1u);
}

TEST(TensorDag, AddOpRejectsAlreadyConsumedOutput) {
  // The old cycle p <-> q: once p reads T2, no later op may produce T2.
  TensorDag dag;
  const auto t1 = dag.add_tensor(dense2d("T1", 4, 4));
  const auto t2 = dag.add_tensor(dense2d("T2", 4, 4));
  dag.add_op(op1d("p", {t2}, t1));
  EXPECT_THROW(dag.add_op(op1d("q", {t1}, t2)), Error);
  // Nor may an op read its own output.
  const auto t3 = dag.add_tensor(dense2d("T3", 4, 4));
  EXPECT_THROW(dag.add_op(op1d("r", {t1, t3}, t3)), Error);
  EXPECT_EQ(dag.ops().size(), 1u);
  EXPECT_TRUE(dag.edges().empty());
}

TEST(TensorDag, TopoOrderIsInsertionOrder) {
  // Two independent chains, interleaved: the order follows add_op calls.
  TensorDag dag;
  std::vector<ir::TensorId> t;
  for (int i = 0; i < 6; ++i) t.push_back(dag.add_tensor(dense2d("T" + std::to_string(i), 4, 4)));
  dag.add_op(op1d("y0", {t[1]}, t[3]));
  dag.add_op(op1d("x0", {t[0]}, t[2]));
  dag.add_op(op1d("y1", {t[3]}, t[5]));
  dag.add_op(op1d("x1", {t[2]}, t[4]));
  EXPECT_EQ(dag.topo_order(), (std::vector<ir::OpId>{0, 1, 2, 3}));
}

TEST(TensorDag, TopoOrderIsProgramOrder) {
  DiamondFixture f;
  const auto order = f.dag.topo_order();
  EXPECT_EQ(order, (std::vector<ir::OpId>{f.a, f.b, f.c, f.d}));
}

TEST(TensorDag, LongestPathPrefersIndirectRoute) {
  DiamondFixture f;
  EXPECT_EQ(f.dag.longest_path_len(f.a, f.d), 3);  // a->b->c->d
  const auto path = f.dag.longest_path(f.a, f.d);
  EXPECT_EQ(path, (std::vector<ir::OpId>{f.a, f.b, f.c, f.d}));
}

TEST(TensorDag, TransitiveEdgeDetection) {
  DiamondFixture f;
  EXPECT_TRUE(f.dag.is_transitive(f.dag.edge(f.shortcut)));
  // a->b is on the longest path: not transitive.
  EXPECT_FALSE(f.dag.is_transitive(f.dag.edge(0)));
}

TEST(TensorDag, ScheduleDistance) {
  DiamondFixture f;
  const auto order = f.dag.topo_order();
  EXPECT_EQ(f.dag.schedule_distance(f.dag.edge(f.shortcut), order), 3);
  EXPECT_EQ(f.dag.schedule_distance(f.dag.edge(0), order), 1);
}

TEST(TensorDag, ConsumersAndProducer) {
  DiamondFixture f;
  const auto ta = f.dag.op(f.a).output;
  const auto consumers = f.dag.consumers(ta);
  EXPECT_EQ(consumers.size(), 3u);  // b, c, d
  EXPECT_EQ(f.dag.producer(ta), std::optional<ir::OpId>(f.a));
  EXPECT_FALSE(f.dag.producer(f.tin).has_value());
}

TEST(TensorDag, DotExportMentionsNodesAndTransitivity) {
  DiamondFixture f;
  const std::string dot = f.dag.to_dot();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("(T)"), std::string::npos);  // transitive edge marker
}

// ---- ownership --------------------------------------------------------------

/// Every node payload and adjacency list of `dag`, as text.  Reading it
/// touches each byte the DAG owns, so under the asan preset a copy or move
/// that left a dangling payload fails here.
std::string structure_of(const TensorDag& dag) {
  std::ostringstream os;
  for (const auto& t : dag.tensors()) {
    os << "t" << t.id << " " << t.name << " " << t.bytes() << " " << t.append_prev << ":";
    for (size_t i = 0; i < t.ranks.size(); ++i) os << " " << t.ranks[i] << "=" << t.dims[i];
    os << " |";
    for (const ir::OpId c : dag.consumers(t.id)) os << " c" << c;
    for (const ir::EdgeId e : dag.tensor_edges(t.id)) os << " e" << e;
    os << "\n";
  }
  for (const auto& op : dag.ops()) {
    os << "o" << op.id << " " << op.name << " " << op.macs() << " ->" << op.output << ":";
    for (const auto& r : op.ranks) os << " " << r.name << "=" << r.effective();
    for (const ir::TensorId in : op.inputs) os << " i" << in;
    os << " |";
    for (const ir::EdgeId e : dag.out_edges(op.id)) os << " out" << e;
    os << "\n";
  }
  return os.str() + dag.to_dot();
}

workloads::CgShape small_cg() { return {1024, 4, 8192, 2, 4}; }

TEST(TensorDagOwnership, CopyOutlivesTheOriginal) {
  TensorDag copy;
  std::string before;
  {
    const TensorDag original = workloads::build_resnet_block_dag({});
    before = structure_of(original);
    copy = original;
  }  // the original is destroyed here
  EXPECT_EQ(structure_of(copy), before);
  EXPECT_EQ(structure_of(TensorDag(copy)), before);  // and the copy constructor
}

TEST(TensorDagOwnership, MovesKeepAdjacencyAndPayloadReferences) {
  TensorDag source = workloads::build_cg_dag(small_cg());
  const std::string before = structure_of(source);
  const ir::TensorId a = 0;  // CG's external sparse matrix, read by every SpMM
  ASSERT_EQ(source.tensor(a).name, "A");
  ASSERT_FALSE(source.consumers(a).empty());
  const std::vector<ir::EdgeId>* out0 = &source.out_edges(0);
  const std::vector<ir::OpId>* consumers_a = &source.consumers(a);
  const std::string* rank0 = &source.tensor(a).ranks[0];
  const ir::OpRank* op_rank0 = &source.op(0).ranks[0];

  TensorDag moved(std::move(source));
  EXPECT_EQ(&moved.out_edges(0), out0);
  EXPECT_EQ(&moved.consumers(a), consumers_a);
  EXPECT_EQ(&moved.tensor(a).ranks[0], rank0);
  EXPECT_EQ(&moved.op(0).ranks[0], op_rank0);
  EXPECT_EQ(structure_of(moved), before);

  // Move-assign over a non-empty DAG: the old nodes go, the references stay.
  TensorDag target = workloads::build_resnet_block_dag({});
  ASSERT_FALSE(target.ops().empty());
  target = std::move(moved);
  EXPECT_EQ(&target.out_edges(0), out0);
  EXPECT_EQ(&target.consumers(a), consumers_a);
  EXPECT_EQ(&target.tensor(a).ranks[0], rank0);
  EXPECT_EQ(&target.op(0).ranks[0], op_rank0);
  EXPECT_EQ(structure_of(target), before);

  // Copy-assign over a non-empty DAG leaves both sides intact.
  TensorDag other = workloads::build_resnet_block_dag({});
  other = target;
  EXPECT_EQ(structure_of(other), before);
  EXPECT_EQ(structure_of(target), before);
}

TEST(TensorDagOwnership, BuildDestroyCyclesAreStable) {
  const std::string first = structure_of(workloads::build_cg_dag(small_cg()));
  for (int i = 0; i < 20; ++i) {
    const TensorDag dag = workloads::build_cg_dag(small_cg());
    EXPECT_EQ(dag.ops().size(), 16u);  // 8 ops per CG iteration
    EXPECT_EQ(structure_of(dag), first);
  }
}

}  // namespace
