#include "workloads/spmv.hpp"

#include "common/error.hpp"
#include "workloads/dag_builder.hpp"

namespace cello::workloads {

ir::TensorDag build_spmv_dag(const SpmvShape& shape) {
  CELLO_CHECK(shape.m > 0 && shape.nnz > 0 && shape.n > 0 && shape.iterations > 0);
  ir::TensorDag dag;
  const i64 m = shape.m, n = shape.n;
  const Bytes w = shape.word_bytes;

  const ir::TensorId A = add_csr(dag, "A", "m", "k", m, shape.nnz, w);
  ir::TensorId x_prev = add_dense(dag, "x@0", "m", m, "n", n, w);

  for (i64 it = 1; it <= shape.iterations; ++it) {
    const ir::TensorId x = add_dense(dag, numbered("x@", it), "m", m, "n", n, w);
    add_spmm(dag, numbered("spmv@", it), A, x_prev, x);
    x_prev = x;
  }

  dag.mark_result(x_prev);
  return dag;
}

}  // namespace cello::workloads
