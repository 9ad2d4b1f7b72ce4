#include "workloads/bicgstab.hpp"

#include "common/error.hpp"

namespace cello::workloads {
namespace {

using ir::OpRank;
using ir::TensorDag;
using ir::TensorDesc;
using ir::TensorId;

TensorId add_vector(TensorDag& dag, const std::string& name, i64 m, i64 n, Bytes w) {
  TensorDesc t = dag.new_tensor();
  t.name = name;
  t.ranks = {"m", "n"};
  t.dims = {m, n};
  t.word_bytes = w;
  return dag.add_tensor(std::move(t));
}

TensorId add_scalar(TensorDag& dag, const std::string& name, i64 n, Bytes w) {
  TensorDesc t = dag.new_tensor();
  t.name = name;
  t.ranks = {"n'", "n"};
  t.dims = {n, n};
  t.word_bytes = w;
  return dag.add_tensor(std::move(t));
}

}  // namespace

ir::TensorDag build_bicgstab_dag(const BiCgStabShape& shape) {
  CELLO_CHECK(shape.m > 0 && shape.nnz > 0 && shape.iterations > 0);
  TensorDag dag;
  const i64 m = shape.m, n = shape.n;
  const Bytes w = shape.word_bytes;
  const i64 occupancy = std::max<i64>(1, shape.nnz / shape.m);

  TensorDesc a = dag.new_tensor();
  a.name = "A";
  a.ranks = {"m", "k"};
  a.dims = {m, m};
  a.word_bytes = w;
  a.storage = ir::Storage::CompressedSparse;
  a.nnz = shape.nnz;
  const TensorId A = dag.add_tensor(std::move(a));

  const TensorId Rhat = add_vector(dag, "r_hat", m, n, w);
  TensorId r_prev = add_vector(dag, "r@0", m, n, w);
  TensorId p_prev = add_vector(dag, "p@0", m, n, w);
  TensorId v_prev = add_vector(dag, "v@0", m, n, w);
  TensorId x_prev = add_vector(dag, "x@0", m, n, w);

  auto dot_op = [&](const std::string& name, std::vector<TensorId> ins, TensorId out) {
    ir::EinsumOp op = dag.new_op();
    op.name = name;
    op.inputs = std::move(ins);
    op.output = out;
    op.ranks = {OpRank{"m", m, true, -1}, OpRank{"n'", n, false, -1}, OpRank{"n", n, false, -1}};
    dag.add_op(std::move(op));
  };
  auto update_op = [&](const std::string& name, std::vector<TensorId> ins, TensorId out) {
    ir::EinsumOp op = dag.new_op();
    op.name = name;
    op.inputs = std::move(ins);
    op.output = out;
    // Vector update = degenerate skewed GEMM (contracted rank of extent n).
    op.ranks = {OpRank{"m", m, false, -1}, OpRank{"j", n, true, -1}, OpRank{"n", n, false, -1}};
    dag.add_op(std::move(op));
  };
  auto spmv_op = [&](const std::string& name, TensorId in, TensorId out) {
    ir::EinsumOp op = dag.new_op();
    op.name = name;
    op.inputs = {A, in};
    op.output = out;
    op.ranks = {OpRank{"m", m, false, -1}, OpRank{"k", m, true, occupancy},
                OpRank{"n", n, false, -1}};
    op.macs_override = shape.nnz * n;
    dag.add_op(std::move(op));
  };

  for (i64 it = 1; it <= shape.iterations; ++it) {
    const std::string v = "@" + std::to_string(it);

    const TensorId rho = add_scalar(dag, "rho" + v, n, w);
    dot_op("rho" + v, {Rhat, r_prev}, rho);

    const TensorId p = add_vector(dag, "p" + v, m, n, w);
    update_op("pupd" + v, {r_prev, p_prev, v_prev, rho}, p);

    const TensorId vv = add_vector(dag, "v" + v, m, n, w);
    spmv_op("spmv_v" + v, p, vv);

    const TensorId alpha = add_scalar(dag, "alpha" + v, n, w);
    dot_op("alpha" + v, {Rhat, vv, rho}, alpha);

    const TensorId s = add_vector(dag, "s" + v, m, n, w);
    update_op("supd" + v, {r_prev, vv, alpha}, s);

    const TensorId t = add_vector(dag, "t" + v, m, n, w);
    spmv_op("spmv_t" + v, s, t);

    const TensorId omega = add_scalar(dag, "omega" + v, n, w);
    dot_op("omega" + v, {t, s}, omega);

    const TensorId x = add_vector(dag, "x" + v, m, n, w);
    update_op("xupd" + v, {x_prev, p, s, alpha, omega}, x);

    const TensorId r = add_vector(dag, "r" + v, m, n, w);
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
