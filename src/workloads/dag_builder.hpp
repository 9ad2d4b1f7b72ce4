// Builder vocabulary shared by the workload DAG builders.
//
// Every workload is an einsum DAG over dense 2-D tensors and square CSR
// operands.  The one modelling decision about a sparse operand lives here:
// an SpMM's compressed contracted rank walks only the row occupancy
// (nnz / rows), so the op stays uncontracted-dominant (the 'U*' node of
// Fig. 7) and performs nnz MACs per output column.
#pragma once

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "ir/dag.hpp"

namespace cello::workloads {

/// `stem` followed by the decimal `i` ("@3", "_b2"): the per-iteration,
/// per-layer and per-block name suffixes.  Built by append: g++ 12 at -O3
/// reports a false -Wrestrict overlap for `"@" + std::to_string(i)`.
inline std::string numbered(const char* stem, i64 i) {
  std::string s(stem);
  s += std::to_string(i);
  return s;
}

/// Dense tensor with ranks {row, col} of extents {rows, cols}.
inline ir::TensorId add_dense(ir::TensorDag& dag, std::string name, std::string row, i64 rows,
                              std::string col, i64 cols, Bytes word) {
  ir::TensorDesc t;
  t.name = std::move(name);
  t.ranks = {std::move(row), std::move(col)};
  t.dims = {rows, cols};
  t.word_bytes = word;
  return dag.add_tensor(std::move(t));
}

/// Square rows x rows CSR operand with ranks {row, col} and `nnz` stored
/// non-zeros.
inline ir::TensorId add_csr(ir::TensorDag& dag, std::string name, std::string row,
                            std::string col, i64 rows, i64 nnz, Bytes word) {
  ir::TensorDesc t;
  t.name = std::move(name);
  t.ranks = {std::move(row), std::move(col)};
  t.dims = {rows, rows};
  t.word_bytes = word;
  t.storage = ir::Storage::CompressedSparse;
  t.nnz = nnz;
  return dag.add_tensor(std::move(t));
}

/// Stored non-zeros per row of a CSR operand: the effective extent of the
/// compressed rank an op walks through it.
inline i64 row_occupancy(const ir::TensorDesc& csr) {
  return std::max<i64>(1, csr.nnz / csr.dims.front());
}

/// Einsum op `out = f(inputs)` over `ranks`; MACs derive from the rank
/// extents unless `macs_override` >= 0.
inline ir::OpId add_einsum(ir::TensorDag& dag, std::string name, std::vector<ir::TensorId> inputs,
                           ir::TensorId out, std::vector<ir::OpRank> ranks,
                           i64 macs_override = -1, ir::OpKind kind = ir::OpKind::TensorMac) {
  ir::EinsumOp op;
  op.name = std::move(name);
  op.kind = kind;
  op.inputs = std::move(inputs);
  op.output = out;
  op.ranks = std::move(ranks);
  op.macs_override = macs_override;
  return dag.add_op(std::move(op));
}

/// SpMM `out[m, n] = a[m, k] . x[k, n]` for CSR `a`: ranks {m, k, n} named
/// after a's ranks and x's column rank, k compressed to a's row occupancy,
/// nnz(a) * n MACs.
inline ir::OpId add_spmm(ir::TensorDag& dag, std::string name, ir::TensorId a, ir::TensorId x,
                         ir::TensorId out) {
  const ir::TensorDesc& A = dag.tensor(a);
  const ir::TensorDesc& X = dag.tensor(x);
  CELLO_CHECK_MSG(A.storage == ir::Storage::CompressedSparse,
                  "SpMM operand " << A.name << " is not CSR");
  const i64 n = X.dims[1];
  return add_einsum(dag, std::move(name), {a, x}, out,
                    {{A.ranks[0], A.dims[0]}, {A.ranks[1], A.dims[1], true, row_occupancy(A)},
                     {X.ranks[1], n}},
                    A.nnz * n);
}

/// Dense GEMM `out[m, o] = x[m, k] . w[k, o]`: ranks {m, k, o} named after
/// x's row rank and w's ranks, k contracted.
inline ir::OpId add_gemm(ir::TensorDag& dag, std::string name, ir::TensorId x, ir::TensorId w,
                         ir::TensorId out) {
  const ir::TensorDesc& X = dag.tensor(x);
  const ir::TensorDesc& W = dag.tensor(w);
  return add_einsum(dag, std::move(name), {x, w}, out,
                    {{X.ranks[0], X.dims[0]}, {W.ranks[0], W.dims[0], true},
                     {W.ranks[1], W.dims[1]}});
}

}  // namespace cello::workloads
