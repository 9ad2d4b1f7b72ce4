#include "workloads/sddmm.hpp"

#include "common/error.hpp"
#include "workloads/dag_builder.hpp"

namespace cello::workloads {

ir::TensorDag build_sddmm_dag(const SddmmShape& shape) {
  CELLO_CHECK(shape.rows > 0 && shape.nnz > 0 && shape.features > 0 && shape.heads > 0);
  ir::TensorDag dag;
  const i64 m = shape.rows, d = shape.features;
  const Bytes w = shape.word_bytes;

  const ir::TensorId M = add_csr(dag, "M", "m", "j", m, shape.nnz, w);
  const i64 occupancy = row_occupancy(dag.tensor(M));

  for (i64 h = 1; h <= shape.heads; ++h) {
    // '_' rather than the '@' versioning convention: each head's projections
    // are distinct buffers, and '@' suffixes would make the AddressMap alias
    // them onto one shared base (only the mask M is genuinely shared).
    const std::string v = numbered("_", h);
    const ir::TensorId Q = add_dense(dag, "Q" + v, "m", m, "d", d, w);
    const ir::TensorId K = add_dense(dag, "K" + v, "j", m, "d", d, w);
    const ir::TensorId S = add_csr(dag, "S" + v, "m", "j", m, shape.nnz, w);

    // Only the mask's nnz positions are computed: the "j" rank traverses the
    // row occupancy, and the contraction runs over the d features.
    add_einsum(dag, "sddmm" + v, {M, Q, K}, S,
               {{"m", m}, {"j", m, false, occupancy}, {"d", d, true}}, shape.nnz * d);

    if (!shape.with_spmm) {
      dag.mark_result(S);
      continue;
    }

    const ir::TensorId V = add_dense(dag, "V" + v, "j", m, "d", d, w);
    const ir::TensorId O = add_dense(dag, "O" + v, "m", m, "d", d, w);
    add_spmm(dag, "spmm" + v, S, V, O);
    dag.mark_result(O);
  }

  return dag;
}

}  // namespace cello::workloads
