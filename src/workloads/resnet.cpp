#include "workloads/resnet.hpp"

#include "common/error.hpp"
#include "workloads/dag_builder.hpp"

namespace cello::workloads {

namespace {

/// im2col conv `out = in . weight`: the contracted rank keeps the weight's
/// input channel-rank name, and a kh*kw `window` multiplies its effective
/// traversal extent.
void add_conv(ir::TensorDag& dag, std::string name, ir::TensorId in, ir::TensorId weight,
              ir::TensorId out, i64 window) {
  const ir::TensorDesc& W = dag.tensor(weight);
  const i64 m = dag.tensor(in).dims[0], cin = W.dims[0], cout = W.dims[1];
  add_einsum(dag, std::move(name), {in, weight}, out,
             {{"m", m}, {W.ranks[0], cin, true, cin * window}, {W.ranks[1], cout}},
             m * cin * window * cout);
}

/// One bottleneck block on `in`: 1x1, kernel x kernel and 1x1 convs, then the
/// residual add `out_name = T3 + in` (the skip consumer).  `v` suffixes the
/// block's tensor and op names; r1, r2, r3 name its channel ranks.
ir::TensorId add_block(ir::TensorDag& dag, const ResNetBlockShape& shape, ir::TensorId in,
                       const std::string& v, const std::string& r1, const std::string& r2,
                       const std::string& r3, const std::string& out_name) {
  const i64 m = shape.spatial, c_in = shape.in_channels, c_mid = shape.bottleneck;
  const Bytes w = shape.word_bytes;
  const std::string in_rank = dag.tensor(in).ranks[1];
  const ir::TensorId W1 = add_dense(dag, "W1" + v, in_rank, c_in, r1, c_mid, w);
  const ir::TensorId T1 = add_dense(dag, "T1" + v, "m", m, r1, c_mid, w);
  const ir::TensorId W2 = add_dense(dag, "W2" + v, r1, c_mid, r2, c_mid, w);
  const ir::TensorId T2 = add_dense(dag, "T2" + v, "m", m, r2, c_mid, w);
  const ir::TensorId W3 = add_dense(dag, "W3" + v, r2, c_mid, r3, c_in, w);
  const ir::TensorId T3 = add_dense(dag, "T3" + v, "m", m, r3, c_in, w);
  const ir::TensorId out = add_dense(dag, out_name, "m", m, r3, c_in, w);

  add_conv(dag, "conv1" + v, in, W1, T1, 1);
  add_conv(dag, "conv2" + v, T1, W2, T2, shape.kernel * shape.kernel);
  add_conv(dag, "conv3" + v, T2, W3, T3, 1);
  // Elementwise residual add, modelled as a MAC op so it can pipeline.
  add_einsum(dag, "add" + v, {T3, in}, out, {{"m", m}, {r3, c_in}}, m * c_in);
  return out;
}

}  // namespace

ir::TensorDag build_resnet_block_dag(const ResNetBlockShape& shape) {
  CELLO_CHECK(shape.spatial > 0 && shape.in_channels > 0 && shape.bottleneck > 0);
  ir::TensorDag dag;
  const i64 m = shape.spatial, c_in = shape.in_channels;
  const Bytes w = shape.word_bytes;

  // Producer of the block input (last conv of the previous block).
  const ir::TensorId Tprev = add_dense(dag, "T_prev", "m", m, "c_p", c_in, w);
  const ir::TensorId W0 = add_dense(dag, "W0", "c_p", c_in, "c0", c_in, w);
  const ir::TensorId T0 = add_dense(dag, "T0", "m", m, "c0", c_in, w);
  add_conv(dag, "conv0", Tprev, W0, T0, 1);

  dag.mark_result(add_block(dag, shape, T0, "", "c1", "c2", "c3", "Out"));
  return dag;
}

ir::TensorDag build_resnet_stack_dag(const ResNetBlockShape& shape, i64 blocks) {
  CELLO_CHECK(blocks >= 1);
  ir::TensorDag dag;
  const i64 m = shape.spatial, c_in = shape.in_channels;
  const Bytes w = shape.word_bytes;

  // Stack input from a producing conv so the first skip is a real hold edge.
  const ir::TensorId in = add_dense(dag, "T_prev", "m", m, "c_p0", c_in, w);
  const ir::TensorId W_in = add_dense(dag, "W_in", "c_p0", c_in, "cB0", c_in, w);
  ir::TensorId block_in = add_dense(dag, "B0_in", "m", m, "cB0", c_in, w);
  add_conv(dag, "stem", in, W_in, block_in, 1);

  for (i64 b = 1; b <= blocks; ++b) {
    const std::string v = numbered("_b", b);
    block_in = add_block(dag, shape, block_in, v, "c1" + v, "c2" + v, numbered("cB", b),
                         numbered("B", b) + "_out");
  }
  dag.mark_result(block_in);
  return dag;
}

}  // namespace cello::workloads
