#include "workloads/spmv.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace cello::workloads {

ir::TensorDag build_spmv_dag(const SpmvShape& shape) {
  CELLO_CHECK(shape.m > 0 && shape.nnz > 0 && shape.n > 0 && shape.iterations > 0);
  ir::TensorDag dag;
  const i64 m = shape.m, n = shape.n;
  const Bytes w = shape.word_bytes;
  const i64 occupancy = std::max<i64>(1, shape.nnz / shape.m);

  ir::TensorDesc a = dag.new_tensor();
  a.name = "A";
  a.ranks = {"m", "k"};
  a.dims = {m, m};
  a.word_bytes = w;
  a.storage = ir::Storage::CompressedSparse;
  a.nnz = shape.nnz;
  const ir::TensorId A = dag.add_tensor(std::move(a));

  auto add_iterate = [&](const std::string& name) {
    ir::TensorDesc t = dag.new_tensor();
    t.name = name;
    t.ranks = {"m", "n"};
    t.dims = {m, n};
    t.word_bytes = w;
    return dag.add_tensor(std::move(t));
  };

  ir::TensorId x_prev = add_iterate("x@0");

  for (i64 it = 1; it <= shape.iterations; ++it) {
    const ir::TensorId x = add_iterate("x@" + std::to_string(it));
    ir::EinsumOp op = dag.new_op();
    op.name = "spmv@" + std::to_string(it);
    op.inputs = {A, x_prev};
    op.output = x;
    op.ranks = {ir::OpRank{"m", m, false, -1}, ir::OpRank{"k", m, true, occupancy},
                ir::OpRank{"n", n, false, -1}};
    op.macs_override = shape.nnz * n;
    dag.add_op(std::move(op));
    x_prev = x;
  }

  dag.mark_result(x_prev);
  return dag;
}

}  // namespace cello::workloads
