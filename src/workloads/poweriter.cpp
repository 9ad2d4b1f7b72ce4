#include "workloads/poweriter.hpp"

#include "common/error.hpp"

namespace cello::workloads {

ir::TensorDag build_power_iteration_dag(const PowerIterShape& shape) {
  CELLO_CHECK(shape.m > 0 && shape.nnz > 0 && shape.iterations > 0);
  ir::TensorDag dag;
  const i64 m = shape.m;
  const Bytes w = shape.word_bytes;
  const i64 occupancy = std::max<i64>(1, shape.nnz / shape.m);

  ir::TensorDesc a;
  a.name = "A";
  a.ranks = {"m", "k"};
  a.dims = {m, m};
  a.word_bytes = w;
  a.storage = ir::Storage::CompressedSparse;
  a.nnz = shape.nnz;
  const ir::TensorId A = dag.add_tensor(std::move(a));

  auto add_vec = [&](const std::string& name) {
    ir::TensorDesc t;
    t.name = name;
    t.ranks = {"m", "n"};
    t.dims = {m, 1};
    t.word_bytes = w;
    return dag.add_tensor(std::move(t));
  };
  auto add_scalar = [&](const std::string& name) {
    ir::TensorDesc t;
    t.name = name;
    t.ranks = {"n'", "n"};
    t.dims = {1, 1};
    t.word_bytes = w;
    return dag.add_tensor(std::move(t));
  };

  ir::TensorId x_prev = add_vec("x@0");

  for (i64 it = 1; it <= shape.iterations; ++it) {
    const std::string v = "@" + std::to_string(it);

    const ir::TensorId y = add_vec("y" + v);
    {
      ir::EinsumOp op;
      op.name = "spmv" + v;
      op.inputs = {A, x_prev};
      op.output = y;
      op.ranks = {ir::OpRank{"m", m, false, -1}, ir::OpRank{"k", m, true, occupancy},
                  ir::OpRank{"n", 1, false, -1}};
      op.macs_override = shape.nnz;
      dag.add_op(std::move(op));
    }

    const ir::TensorId sigma = add_scalar("sigma" + v);
    {
      ir::EinsumOp op;
      op.name = "norm" + v;
      op.inputs = {y};
      op.output = sigma;
      op.ranks = {ir::OpRank{"m", m, true, -1}, ir::OpRank{"n'", 1, false, -1},
                  ir::OpRank{"n", 1, false, -1}};
      dag.add_op(std::move(op));
    }

    const ir::TensorId x = add_vec("x" + v);
    {
      ir::EinsumOp op;
      op.name = "scale" + v;
      op.inputs = {y, sigma};
      op.output = x;
      op.ranks = {ir::OpRank{"m", m, false, -1}, ir::OpRank{"j", 1, true, -1},
                  ir::OpRank{"n", 1, false, -1}};
      op.macs_override = m;
      dag.add_op(std::move(op));
    }
    x_prev = x;
  }
  dag.mark_result(x_prev);
  return dag;
}

}  // namespace cello::workloads
