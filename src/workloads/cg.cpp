#include "workloads/cg.hpp"

#include "common/error.hpp"

namespace cello::workloads {

std::string base_name(const std::string& instance_name) {
  const auto at = instance_name.find('@');
  return at == std::string::npos ? instance_name : instance_name.substr(0, at);
}

namespace {

using ir::OpKind;
using ir::OpRank;
using ir::Storage;
using ir::TensorDag;
using ir::TensorDesc;
using ir::TensorId;

TensorId add_skewed(TensorDag& dag, const std::string& name, i64 m, i64 n, Bytes word) {
  TensorDesc t = dag.new_tensor();
  t.name = name;
  t.ranks = {"m", "n"};
  t.dims = {m, n};
  t.word_bytes = word;
  return dag.add_tensor(std::move(t));
}

TensorId add_small(TensorDag& dag, const std::string& name, i64 n1, i64 n2, Bytes word) {
  TensorDesc t = dag.new_tensor();
  t.name = name;
  t.ranks = {"n'", "n"};
  t.dims = {n1, n2};
  t.word_bytes = word;
  return dag.add_tensor(std::move(t));
}

}  // namespace

ir::TensorDag build_cg_dag(const CgShape& shape) {
  CELLO_CHECK(shape.m > 0 && shape.n > 0 && shape.nnz > 0 && shape.iterations > 0);
  TensorDag dag;
  const i64 m = shape.m, n = shape.n;
  const Bytes w = shape.word_bytes;
  const i64 occupancy = std::max<i64>(1, shape.nnz / shape.m);

  // External inputs: the sparse matrix A and the iteration-0 state.
  TensorDesc a = dag.new_tensor();
  a.name = "A";
  a.ranks = {"m", "k"};
  a.dims = {m, m};
  a.word_bytes = w;
  a.storage = Storage::CompressedSparse;
  a.nnz = shape.nnz;
  const TensorId A = dag.add_tensor(std::move(a));

  TensorId P_prev = add_skewed(dag, "P@0", m, n, w);
  TensorId R_prev = add_skewed(dag, "R@0", m, n, w);
  TensorId X_prev = add_skewed(dag, "X@0", m, n, w);
  TensorId G_prev = add_small(dag, "Gamma@0", n, n, w);

  for (i64 it = 1; it <= shape.iterations; ++it) {
    const std::string v = "@" + std::to_string(it);

    // Line 1: S = A (.) P  — SpMM; the contracted rank is compressed, so its
    // effective traversal extent is the row occupancy and the op stays
    // uncontracted-dominant (the 'U*' node of Fig. 7).
    const TensorId S = add_skewed(dag, "S" + v, m, n, w);
    {
      ir::EinsumOp op = dag.new_op();
      op.name = "1" + v;
      op.inputs = {A, P_prev};
      op.output = S;
      op.ranks = {OpRank{"m", m, false, -1}, OpRank{"k", m, true, occupancy},
                  OpRank{"n", n, false, -1}};
      op.macs_override = shape.nnz * n;
      dag.add_op(std::move(op));
    }

    // Line 2a: Delta = P^T S — contraction over the big m rank ('C' node).
    const TensorId Delta = add_small(dag, "Delta" + v, n, n, w);
    {
      ir::EinsumOp op = dag.new_op();
      op.name = "2a" + v;
      op.inputs = {P_prev, S};
      op.output = Delta;
      op.ranks = {OpRank{"m", m, true, -1}, OpRank{"n'", n, false, -1},
                  OpRank{"n", n, false, -1}};
      dag.add_op(std::move(op));
    }

    // Line 2b: Lambda = Delta^{-1} Gamma — small inverse-and-multiply.
    const TensorId Lambda = add_small(dag, "Lambda" + v, n, n, w);
    {
      ir::EinsumOp op = dag.new_op();
      op.name = "2b" + v;
      op.kind = OpKind::Inverse;
      op.inputs = {Delta, G_prev};
      op.output = Lambda;
      op.ranks = {OpRank{"n'", n, false, -1}, OpRank{"j", n, true, -1},
                  OpRank{"n", n, false, -1}};
      dag.add_op(std::move(op));
    }

    // Line 3: X = X + P Lambda — the delayed self-dependency tensor.
    const TensorId X = add_skewed(dag, "X" + v, m, n, w);
    {
      ir::EinsumOp op = dag.new_op();
      op.name = "3" + v;
      op.inputs = {X_prev, P_prev, Lambda};
      op.output = X;
      op.ranks = {OpRank{"m", m, false, -1}, OpRank{"j", n, true, -1},
                  OpRank{"n", n, false, -1}};
      dag.add_op(std::move(op));
    }

    // Line 4: R = R - S Lambda.
    const TensorId R = add_skewed(dag, "R" + v, m, n, w);
    {
      ir::EinsumOp op = dag.new_op();
      op.name = "4" + v;
      op.inputs = {R_prev, S, Lambda};
      op.output = R;
      op.ranks = {OpRank{"m", m, false, -1}, OpRank{"j", n, true, -1},
                  OpRank{"n", n, false, -1}};
      dag.add_op(std::move(op));
    }

    // Line 5: Gamma = R^T R ('C' node).
    const TensorId Gamma = add_small(dag, "Gamma" + v, n, n, w);
    {
      ir::EinsumOp op = dag.new_op();
      op.name = "5" + v;
      op.inputs = {R};
      op.output = Gamma;
      op.ranks = {OpRank{"m", m, true, -1}, OpRank{"n'", n, false, -1},
                  OpRank{"n", n, false, -1}};
      dag.add_op(std::move(op));
    }

    // Line 6: Phi = Gamma_prev^{-1} Gamma — small inverse ('inv' node).
    const TensorId Phi = add_small(dag, "Phi" + v, n, n, w);
    {
      ir::EinsumOp op = dag.new_op();
      op.name = "6" + v;
      op.kind = OpKind::Inverse;
      op.inputs = {G_prev, Gamma};
      op.output = Phi;
      op.ranks = {OpRank{"n'", n, false, -1}, OpRank{"j", n, true, -1},
                  OpRank{"n", n, false, -1}};
      dag.add_op(std::move(op));
    }

    // Line 7: P = R + P Phi — the new search direction.
    const TensorId P = add_skewed(dag, "P" + v, m, n, w);
    {
      ir::EinsumOp op = dag.new_op();
      op.name = "7" + v;
      op.inputs = {R, P_prev, Phi};
      op.output = P;
      op.ranks = {OpRank{"m", m, false, -1}, OpRank{"j", n, true, -1},
                  OpRank{"n", n, false, -1}};
      dag.add_op(std::move(op));
    }

    P_prev = P;
    R_prev = R;
    X_prev = X;
    G_prev = Gamma;
  }

  // The last iteration's X is the solution and must land in memory.
  dag.mark_result(X_prev);

  return dag;
}

}  // namespace cello::workloads
