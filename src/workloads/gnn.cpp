#include "workloads/gnn.hpp"

#include "common/error.hpp"
#include "workloads/dag_builder.hpp"

namespace cello::workloads {

namespace {

/// The normalized adjacency every layer's aggregation reads.
ir::TensorId add_adjacency(ir::TensorDag& dag, const GnnShape& shape) {
  CELLO_CHECK(shape.vertices > 0 && shape.nnz > 0 && shape.in_features > 0 &&
              shape.out_features > 0);
  return add_csr(dag, "A_hat", "m", "k", shape.vertices, shape.nnz, shape.word_bytes);
}

}  // namespace

ir::TensorDag build_gnn_dag(const GnnShape& shape) {
  ir::TensorDag dag;
  const i64 m = shape.vertices, n = shape.in_features, o = shape.out_features;
  const Bytes w = shape.word_bytes;

  const ir::TensorId A = add_adjacency(dag, shape);
  const ir::TensorId X = add_dense(dag, "X", "m", m, "n", n, w);
  const ir::TensorId W = add_dense(dag, "W", "n", n, "o", o, w);
  const ir::TensorId H = add_dense(dag, "H", "m", m, "n", n, w);
  const ir::TensorId Y = add_dense(dag, "Y", "m", m, "o", o, w);
  add_spmm(dag, "aggregate", A, X, H);
  add_gemm(dag, "transform", H, W, Y);
  dag.mark_result(Y);
  return dag;
}

ir::TensorDag build_gnn_multilayer_dag(const GnnShape& shape, i64 layers, i64 hidden_features) {
  CELLO_CHECK(layers >= 1);
  ir::TensorDag dag;
  const i64 m = shape.vertices;
  const Bytes w = shape.word_bytes;

  const ir::TensorId A = add_adjacency(dag, shape);
  ir::TensorId h_prev = add_dense(dag, "H@0", "m", m, "n", shape.in_features, w);
  i64 feats_prev = shape.in_features;

  for (i64 l = 1; l <= layers; ++l) {
    const i64 feats_out = (l == layers) ? shape.out_features : hidden_features;
    const std::string v = numbered("@", l);
    const ir::TensorId W = add_dense(dag, "W" + v, "n", feats_prev, "o", feats_out, w);
    const ir::TensorId G = add_dense(dag, "G" + v, "m", m, "n", feats_prev, w);  // aggregated
    const ir::TensorId H = add_dense(dag, "H" + v, "m", m, "n", feats_out, w);
    add_spmm(dag, "aggregate" + v, A, h_prev, G);
    add_gemm(dag, "transform" + v, G, W, H);
    h_prev = H;
    feats_prev = feats_out;
  }
  dag.mark_result(h_prev);
  return dag;
}

}  // namespace cello::workloads
