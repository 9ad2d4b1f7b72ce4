#include "workloads/resnet.hpp"

#include "common/error.hpp"

namespace cello::workloads {

ir::TensorDag build_resnet_block_dag(const ResNetBlockShape& shape) {
  CELLO_CHECK(shape.spatial > 0 && shape.in_channels > 0 && shape.bottleneck > 0);
  ir::TensorDag dag;
  const i64 m = shape.spatial;
  const i64 c_in = shape.in_channels;
  const i64 c_mid = shape.bottleneck;
  const Bytes w = shape.word_bytes;

  auto add_fmap = [&](const std::string& name, const std::string& chan_rank, i64 channels) {
    ir::TensorDesc t = dag.new_tensor();
    t.name = name;
    t.ranks = {"m", chan_rank};
    t.dims = {m, channels};
    t.word_bytes = w;
    return dag.add_tensor(std::move(t));
  };
  auto add_weight = [&](const std::string& name, const std::string& rin, i64 cin,
                        const std::string& rout, i64 cout) {
    ir::TensorDesc t = dag.new_tensor();
    t.name = name;
    t.ranks = {rin, rout};
    t.dims = {cin, cout};
    t.word_bytes = w;
    return dag.add_tensor(std::move(t));
  };

  // Producer of the block input (last conv of the previous block).
  const ir::TensorId Tprev = add_fmap("T_prev", "c_p", c_in);
  const ir::TensorId W0 = add_weight("W0", "c_p", c_in, "c0", c_in);
  const ir::TensorId T0 = add_fmap("T0", "c0", c_in);

  const ir::TensorId W1 = add_weight("W1", "c0", c_in, "c1", c_mid);
  const ir::TensorId T1 = add_fmap("T1", "c1", c_mid);
  const ir::TensorId W2 = add_weight("W2", "c1", c_mid, "c2", c_mid);
  const ir::TensorId T2 = add_fmap("T2", "c2", c_mid);
  const ir::TensorId W3 = add_weight("W3", "c2", c_mid, "c3", c_in);
  const ir::TensorId T3 = add_fmap("T3", "c3", c_in);
  const ir::TensorId Out = add_fmap("Out", "c3", c_in);

  auto conv = [&](const std::string& name, ir::TensorId in, ir::TensorId weight,
                  ir::TensorId out, const std::string& rin, i64 cin, const std::string& rout,
                  i64 cout, i64 window) {
    ir::EinsumOp op = dag.new_op();
    op.name = name;
    op.inputs = {in, weight};
    op.output = out;
    // Contracted rank keeps the input channel-rank name; a kh*kw window
    // multiplies its effective traversal extent (im2col).
    op.ranks = {ir::OpRank{"m", m, false, -1},
                ir::OpRank{rin, cin, true, cin * window},
                ir::OpRank{rout, cout, false, -1}};
    op.macs_override = m * cin * window * cout;
    dag.add_op(std::move(op));
  };

  conv("conv0", Tprev, W0, T0, "c_p", c_in, "c0", c_in, 1);
  conv("conv1", T0, W1, T1, "c0", c_in, "c1", c_mid, 1);
  conv("conv2", T1, W2, T2, "c1", c_mid, "c2", c_mid, shape.kernel * shape.kernel);
  conv("conv3", T2, W3, T3, "c2", c_mid, "c3", c_in, 1);

  {
    // Elementwise residual add: Out = T3 + T0 (the skip consumer).
    ir::EinsumOp op = dag.new_op();
    op.name = "add";
    op.kind = ir::OpKind::TensorMac;  // modelled as a MAC op so it can pipeline
    op.inputs = {T3, T0};
    op.output = Out;
    op.ranks = {ir::OpRank{"m", m, false, -1}, ir::OpRank{"c3", c_in, false, -1}};
    op.macs_override = m * c_in;
    dag.add_op(std::move(op));
  }
  dag.mark_result(Out);

  return dag;
}

ir::TensorDag build_resnet_stack_dag(const ResNetBlockShape& shape, i64 blocks) {
  CELLO_CHECK(blocks >= 1);
  ir::TensorDag dag;
  const i64 m = shape.spatial;
  const i64 c_in = shape.in_channels;
  const i64 c_mid = shape.bottleneck;
  const Bytes w = shape.word_bytes;

  auto add_fmap = [&](const std::string& name, const std::string& chan_rank, i64 channels) {
    ir::TensorDesc t = dag.new_tensor();
    t.name = name;
    t.ranks = {"m", chan_rank};
    t.dims = {m, channels};
    t.word_bytes = w;
    return dag.add_tensor(std::move(t));
  };
  auto add_weight = [&](const std::string& name, const std::string& rin, i64 cin,
                        const std::string& rout, i64 cout) {
    ir::TensorDesc t = dag.new_tensor();
    t.name = name;
    t.ranks = {rin, rout};
    t.dims = {cin, cout};
    t.word_bytes = w;
    return dag.add_tensor(std::move(t));
  };
  auto conv = [&](const std::string& name, ir::TensorId in, ir::TensorId weight,
                  ir::TensorId out, const std::string& rin, i64 cin, const std::string& rout,
                  i64 cout, i64 window) {
    ir::EinsumOp op = dag.new_op();
    op.name = name;
    op.inputs = {in, weight};
    op.output = out;
    op.ranks = {ir::OpRank{"m", m, false, -1}, ir::OpRank{rin, cin, true, cin * window},
                ir::OpRank{rout, cout, false, -1}};
    op.macs_override = m * cin * window * cout;
    dag.add_op(std::move(op));
  };

  // Stack input from a producing conv so the first skip is a real hold edge.
  ir::TensorId in_prev = add_fmap("T_prev", "c_p0", c_in);
  const ir::TensorId W_in = add_weight("W_in", "c_p0", c_in, "cB0", c_in);
  ir::TensorId block_in = add_fmap("B0_in", "cB0", c_in);
  conv("stem", in_prev, W_in, block_in, "c_p0", c_in, "cB0", c_in, 1);
  std::string in_rank = "cB0";

  for (i64 b = 1; b <= blocks; ++b) {
    const std::string v = "_b" + std::to_string(b);
    const std::string r1 = "c1" + v, r2 = "c2" + v, r3 = "cB" + std::to_string(b);
    const ir::TensorId W1 = add_weight("W1" + v, in_rank, c_in, r1, c_mid);
    const ir::TensorId T1 = add_fmap("T1" + v, r1, c_mid);
    const ir::TensorId W2 = add_weight("W2" + v, r1, c_mid, r2, c_mid);
    const ir::TensorId T2 = add_fmap("T2" + v, r2, c_mid);
    const ir::TensorId W3 = add_weight("W3" + v, r2, c_mid, r3, c_in);
    const ir::TensorId T3 = add_fmap("T3" + v, r3, c_in);
    const ir::TensorId Out = add_fmap("B" + std::to_string(b) + "_out", r3, c_in);

    conv("conv1" + v, block_in, W1, T1, in_rank, c_in, r1, c_mid, 1);
    conv("conv2" + v, T1, W2, T2, r1, c_mid, r2, c_mid, shape.kernel * shape.kernel);
    conv("conv3" + v, T2, W3, T3, r2, c_mid, r3, c_in, 1);
    {
      ir::EinsumOp op = dag.new_op();
      op.name = "add" + v;
      op.inputs = {T3, block_in};
      op.output = Out;
      op.ranks = {ir::OpRank{"m", m, false, -1}, ir::OpRank{r3, c_in, false, -1}};
      op.macs_override = m * c_in;
      dag.add_op(std::move(op));
    }
    block_in = Out;
    in_rank = r3;
  }
  dag.mark_result(block_in);
  return dag;
}

}  // namespace cello::workloads
