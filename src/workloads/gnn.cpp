#include "workloads/gnn.hpp"

#include "common/error.hpp"

namespace cello::workloads {

ir::TensorDag build_gnn_dag(const GnnShape& shape) {
  CELLO_CHECK(shape.vertices > 0 && shape.nnz > 0 && shape.in_features > 0 &&
              shape.out_features > 0);
  ir::TensorDag dag;
  const i64 m = shape.vertices, n = shape.in_features, o = shape.out_features;
  const Bytes w = shape.word_bytes;
  const i64 occupancy = std::max<i64>(1, shape.nnz / shape.vertices);

  ir::TensorDesc a = dag.new_tensor();
  a.name = "A_hat";
  a.ranks = {"m", "k"};
  a.dims = {m, m};
  a.word_bytes = w;
  a.storage = ir::Storage::CompressedSparse;
  a.nnz = shape.nnz;
  const ir::TensorId A = dag.add_tensor(std::move(a));

  ir::TensorDesc x = dag.new_tensor();
  x.name = "X";
  x.ranks = {"m", "n"};
  x.dims = {m, n};
  x.word_bytes = w;
  const ir::TensorId X = dag.add_tensor(std::move(x));

  ir::TensorDesc wt = dag.new_tensor();
  wt.name = "W";
  wt.ranks = {"n", "o"};
  wt.dims = {n, o};
  wt.word_bytes = w;
  const ir::TensorId W = dag.add_tensor(std::move(wt));

  ir::TensorDesc h = dag.new_tensor();
  h.name = "H";
  h.ranks = {"m", "n"};
  h.dims = {m, n};
  h.word_bytes = w;
  const ir::TensorId H = dag.add_tensor(std::move(h));

  ir::TensorDesc y = dag.new_tensor();
  y.name = "Y";
  y.ranks = {"m", "o"};
  y.dims = {m, o};
  y.word_bytes = w;
  const ir::TensorId Y = dag.add_tensor(std::move(y));

  {
    ir::EinsumOp op = dag.new_op();
    op.name = "aggregate";
    op.inputs = {A, X};
    op.output = H;
    op.ranks = {ir::OpRank{"m", m, false, -1}, ir::OpRank{"k", m, true, occupancy},
                ir::OpRank{"n", n, false, -1}};
    op.macs_override = shape.nnz * n;
    dag.add_op(std::move(op));
  }
  {
    ir::EinsumOp op = dag.new_op();
    op.name = "transform";
    op.inputs = {H, W};
    op.output = Y;
    op.ranks = {ir::OpRank{"m", m, false, -1}, ir::OpRank{"n", n, true, -1},
                ir::OpRank{"o", o, false, -1}};
    dag.add_op(std::move(op));
  }
  dag.mark_result(Y);
  return dag;
}

ir::TensorDag build_gnn_multilayer_dag(const GnnShape& shape, i64 layers, i64 hidden_features) {
  CELLO_CHECK(shape.vertices > 0 && shape.nnz > 0 && shape.in_features > 0 &&
              shape.out_features > 0 && layers >= 1);
  ir::TensorDag dag;
  const i64 m = shape.vertices;
  const Bytes w = shape.word_bytes;
  const i64 occupancy = std::max<i64>(1, shape.nnz / shape.vertices);

  ir::TensorDesc a = dag.new_tensor();
  a.name = "A_hat";
  a.ranks = {"m", "k"};
  a.dims = {m, m};
  a.word_bytes = w;
  a.storage = ir::Storage::CompressedSparse;
  a.nnz = shape.nnz;
  const ir::TensorId A = dag.add_tensor(std::move(a));

  auto add_fmap = [&](const std::string& name, i64 feats) {
    ir::TensorDesc t = dag.new_tensor();
    t.name = name;
    t.ranks = {"m", "n"};
    t.dims = {m, feats};
    t.word_bytes = w;
    return dag.add_tensor(std::move(t));
  };

  ir::TensorId h_prev = add_fmap("H@0", shape.in_features);
  i64 feats_prev = shape.in_features;

  for (i64 l = 1; l <= layers; ++l) {
    const i64 feats_out = (l == layers) ? shape.out_features : hidden_features;
    const std::string v = "@" + std::to_string(l);

    ir::TensorDesc wt = dag.new_tensor();
    wt.name = "W" + v;
    wt.ranks = {"n", "o"};
    wt.dims = {feats_prev, feats_out};
    wt.word_bytes = w;
    const ir::TensorId W = dag.add_tensor(std::move(wt));

    const ir::TensorId G = add_fmap("G" + v, feats_prev);  // aggregated features
    {
      ir::EinsumOp op = dag.new_op();
      op.name = "aggregate" + v;
      op.inputs = {A, h_prev};
      op.output = G;
      op.ranks = {ir::OpRank{"m", m, false, -1}, ir::OpRank{"k", m, true, occupancy},
                  ir::OpRank{"n", feats_prev, false, -1}};
      op.macs_override = shape.nnz * feats_prev;
      dag.add_op(std::move(op));
    }
    const ir::TensorId H = add_fmap("H" + v, feats_out);
    {
      ir::EinsumOp op = dag.new_op();
      op.name = "transform" + v;
      op.inputs = {G, W};
      op.output = H;
      op.ranks = {ir::OpRank{"m", m, false, -1}, ir::OpRank{"n", feats_prev, true, -1},
                  ir::OpRank{"o", feats_out, false, -1}};
      dag.add_op(std::move(op));
    }
    h_prev = H;
    feats_prev = feats_out;
  }
  dag.mark_result(h_prev);
  return dag;
}

}  // namespace cello::workloads
