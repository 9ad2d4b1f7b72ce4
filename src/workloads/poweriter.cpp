#include "workloads/poweriter.hpp"

#include "common/error.hpp"
#include "workloads/dag_builder.hpp"

namespace cello::workloads {

ir::TensorDag build_power_iteration_dag(const PowerIterShape& shape) {
  CELLO_CHECK(shape.m > 0 && shape.nnz > 0 && shape.iterations > 0);
  ir::TensorDag dag;
  const i64 m = shape.m;
  const Bytes w = shape.word_bytes;

  const ir::TensorId A = add_csr(dag, "A", "m", "k", m, shape.nnz, w);
  ir::TensorId x_prev = add_dense(dag, "x@0", "m", m, "n", 1, w);

  for (i64 it = 1; it <= shape.iterations; ++it) {
    const std::string v = numbered("@", it);

    const ir::TensorId y = add_dense(dag, "y" + v, "m", m, "n", 1, w);
    add_spmm(dag, "spmv" + v, A, x_prev, y);

    const ir::TensorId sigma = add_dense(dag, "sigma" + v, "n'", 1, "n", 1, w);
    add_einsum(dag, "norm" + v, {y}, sigma, {{"m", m, true}, {"n'", 1}, {"n", 1}});

    const ir::TensorId x = add_dense(dag, "x" + v, "m", m, "n", 1, w);
    add_einsum(dag, "scale" + v, {y, sigma}, x, {{"m", m}, {"j", 1, true}, {"n", 1}}, m);
    x_prev = x;
  }
  dag.mark_result(x_prev);
  return dag;
}

}  // namespace cello::workloads
