#include "workloads/cg.hpp"

#include "common/error.hpp"
#include "workloads/dag_builder.hpp"

namespace cello::workloads {

std::string base_name(const std::string& instance_name) {
  const auto at = instance_name.find('@');
  return at == std::string::npos ? instance_name : instance_name.substr(0, at);
}

ir::TensorDag build_cg_dag(const CgShape& shape) {
  CELLO_CHECK(shape.m > 0 && shape.n > 0 && shape.nnz > 0 && shape.iterations > 0);
  ir::TensorDag dag;
  const i64 m = shape.m, n = shape.n;
  const Bytes w = shape.word_bytes;

  // External inputs: the sparse matrix A and the iteration-0 state.
  const ir::TensorId A = add_csr(dag, "A", "m", "k", m, shape.nnz, w);
  ir::TensorId P_prev = add_dense(dag, "P@0", "m", m, "n", n, w);
  ir::TensorId R_prev = add_dense(dag, "R@0", "m", m, "n", n, w);
  ir::TensorId X_prev = add_dense(dag, "X@0", "m", m, "n", n, w);
  ir::TensorId G_prev = add_dense(dag, "Gamma@0", "n'", n, "n", n, w);

  for (i64 it = 1; it <= shape.iterations; ++it) {
    const std::string v = numbered("@", it);

    // Line 1: S = A (.) P  — SpMM (the 'U*' node of Fig. 7).
    const ir::TensorId S = add_dense(dag, "S" + v, "m", m, "n", n, w);
    add_spmm(dag, "1" + v, A, P_prev, S);

    // Line 2a: Delta = P^T S — contraction over the big m rank ('C' node).
    const ir::TensorId Delta = add_dense(dag, "Delta" + v, "n'", n, "n", n, w);
    add_einsum(dag, "2a" + v, {P_prev, S}, Delta, {{"m", m, true}, {"n'", n}, {"n", n}});

    // Line 2b: Lambda = Delta^{-1} Gamma — small inverse-and-multiply.
    const ir::TensorId Lambda = add_dense(dag, "Lambda" + v, "n'", n, "n", n, w);
    add_einsum(dag, "2b" + v, {Delta, G_prev}, Lambda, {{"n'", n}, {"j", n, true}, {"n", n}},
               -1, ir::OpKind::Inverse);

    // Line 3: X = X + P Lambda — the delayed self-dependency tensor.
    const ir::TensorId X = add_dense(dag, "X" + v, "m", m, "n", n, w);
    add_einsum(dag, "3" + v, {X_prev, P_prev, Lambda}, X, {{"m", m}, {"j", n, true}, {"n", n}});

    // Line 4: R = R - S Lambda.
    const ir::TensorId R = add_dense(dag, "R" + v, "m", m, "n", n, w);
    add_einsum(dag, "4" + v, {R_prev, S, Lambda}, R, {{"m", m}, {"j", n, true}, {"n", n}});

    // Line 5: Gamma = R^T R ('C' node).
    const ir::TensorId Gamma = add_dense(dag, "Gamma" + v, "n'", n, "n", n, w);
    add_einsum(dag, "5" + v, {R}, Gamma, {{"m", m, true}, {"n'", n}, {"n", n}});

    // Line 6: Phi = Gamma_prev^{-1} Gamma — small inverse ('inv' node).
    const ir::TensorId Phi = add_dense(dag, "Phi" + v, "n'", n, "n", n, w);
    add_einsum(dag, "6" + v, {G_prev, Gamma}, Phi, {{"n'", n}, {"j", n, true}, {"n", n}}, -1,
               ir::OpKind::Inverse);

    // Line 7: P = R + P Phi — the new search direction.
    const ir::TensorId P = add_dense(dag, "P" + v, "m", m, "n", n, w);
    add_einsum(dag, "7" + v, {R, P_prev, Phi}, P, {{"m", m}, {"j", n, true}, {"n", n}});

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
