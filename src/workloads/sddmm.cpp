#include "workloads/sddmm.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace cello::workloads {

ir::TensorDag build_sddmm_dag(const SddmmShape& shape) {
  CELLO_CHECK(shape.rows > 0 && shape.nnz > 0 && shape.features > 0 && shape.heads > 0);
  ir::TensorDag dag;
  const i64 m = shape.rows, d = shape.features;
  const Bytes w = shape.word_bytes;
  const i64 occupancy = std::max<i64>(1, shape.nnz / shape.rows);

  ir::TensorDesc mask;
  mask.name = "M";
  mask.ranks = {"m", "j"};
  mask.dims = {m, m};
  mask.word_bytes = w;
  mask.storage = ir::Storage::CompressedSparse;
  mask.nnz = shape.nnz;
  const ir::TensorId M = dag.add_tensor(std::move(mask));

  auto add_dense = [&](const std::string& name, const std::string& row_rank) {
    ir::TensorDesc t;
    t.name = name;
    t.ranks = {row_rank, "d"};
    t.dims = {m, d};
    t.word_bytes = w;
    return dag.add_tensor(std::move(t));
  };

  for (i64 h = 1; h <= shape.heads; ++h) {
    // '_' rather than the '@' versioning convention: each head's projections
    // are distinct buffers, and '@' suffixes would make the AddressMap alias
    // them onto one shared base (only the mask M is genuinely shared).
    const std::string v = "_" + std::to_string(h);
    const ir::TensorId Q = add_dense("Q" + v, "m");
    const ir::TensorId K = add_dense("K" + v, "j");

    ir::TensorDesc s;
    s.name = "S" + v;
    s.ranks = {"m", "j"};
    s.dims = {m, m};
    s.word_bytes = w;
    s.storage = ir::Storage::CompressedSparse;
    s.nnz = shape.nnz;
    const ir::TensorId S = dag.add_tensor(std::move(s));

    {
      // Only the mask's nnz positions are computed: the "j" rank traverses
      // the row occupancy, and the contraction runs over the d features.
      ir::EinsumOp op;
      op.name = "sddmm" + v;
      op.inputs = {M, Q, K};
      op.output = S;
      op.ranks = {ir::OpRank{"m", m, false, -1}, ir::OpRank{"j", m, false, occupancy},
                  ir::OpRank{"d", d, true, -1}};
      op.macs_override = shape.nnz * d;
      dag.add_op(std::move(op));
    }

    if (!shape.with_spmm) {
      dag.mark_result(S);
      continue;
    }

    const ir::TensorId V = add_dense("V" + v, "j");
    const ir::TensorId O = add_dense("O" + v, "m");
    {
      ir::EinsumOp op;
      op.name = "spmm" + v;
      op.inputs = {S, V};
      op.output = O;
      op.ranks = {ir::OpRank{"m", m, false, -1}, ir::OpRank{"j", m, true, occupancy},
                  ir::OpRank{"d", d, false, -1}};
      op.macs_override = shape.nnz * d;
      dag.add_op(std::move(op));
    }
    dag.mark_result(O);
  }

  return dag;
}

}  // namespace cello::workloads
