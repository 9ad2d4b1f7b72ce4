#include "workloads/bicgstab.hpp"

#include "common/error.hpp"
#include "workloads/dag_builder.hpp"

namespace cello::workloads {

ir::TensorDag build_bicgstab_dag(const BiCgStabShape& shape) {
  CELLO_CHECK(shape.m > 0 && shape.nnz > 0 && shape.iterations > 0);
  ir::TensorDag dag;
  const i64 m = shape.m, n = shape.n;
  const Bytes w = shape.word_bytes;

  const ir::TensorId A = add_csr(dag, "A", "m", "k", m, shape.nnz, w);

  const ir::TensorId Rhat = add_dense(dag, "r_hat", "m", m, "n", n, w);
  ir::TensorId r_prev = add_dense(dag, "r@0", "m", m, "n", n, w);
  ir::TensorId p_prev = add_dense(dag, "p@0", "m", m, "n", n, w);
  ir::TensorId v_prev = add_dense(dag, "v@0", "m", m, "n", n, w);
  ir::TensorId x_prev = add_dense(dag, "x@0", "m", m, "n", n, w);

  auto dot_op = [&](std::string name, std::vector<ir::TensorId> ins, ir::TensorId out) {
    add_einsum(dag, std::move(name), std::move(ins), out, {{"m", m, true}, {"n'", n}, {"n", n}});
  };
  // Vector update = degenerate skewed GEMM (contracted rank of extent n).
  auto update_op = [&](std::string name, std::vector<ir::TensorId> ins, ir::TensorId out) {
    add_einsum(dag, std::move(name), std::move(ins), out, {{"m", m}, {"j", n, true}, {"n", n}});
  };

  for (i64 it = 1; it <= shape.iterations; ++it) {
    const std::string v = numbered("@", it);

    const ir::TensorId rho = add_dense(dag, "rho" + v, "n'", n, "n", n, w);
    dot_op("rho" + v, {Rhat, r_prev}, rho);

    const ir::TensorId p = add_dense(dag, "p" + v, "m", m, "n", n, w);
    update_op("pupd" + v, {r_prev, p_prev, v_prev, rho}, p);

    const ir::TensorId vv = add_dense(dag, "v" + v, "m", m, "n", n, w);
    add_spmm(dag, "spmv_v" + v, A, p, vv);

    const ir::TensorId alpha = add_dense(dag, "alpha" + v, "n'", n, "n", n, w);
    dot_op("alpha" + v, {Rhat, vv, rho}, alpha);

    const ir::TensorId s = add_dense(dag, "s" + v, "m", m, "n", n, w);
    update_op("supd" + v, {r_prev, vv, alpha}, s);

    const ir::TensorId t = add_dense(dag, "t" + v, "m", m, "n", n, w);
    add_spmm(dag, "spmv_t" + v, A, s, t);

    const ir::TensorId omega = add_dense(dag, "omega" + v, "n'", n, "n", n, w);
    dot_op("omega" + v, {t, s}, omega);

    const ir::TensorId x = add_dense(dag, "x" + v, "m", m, "n", n, w);
    update_op("xupd" + v, {x_prev, p, s, alpha, omega}, x);

    const ir::TensorId r = add_dense(dag, "r" + v, "m", m, "n", n, w);
    update_op("rupd" + v, {s, t, omega}, r);

    r_prev = r;
    p_prev = p;
    v_prev = vv;
    x_prev = x;
  }
  dag.mark_result(x_prev);

  return dag;
}

}  // namespace cello::workloads
