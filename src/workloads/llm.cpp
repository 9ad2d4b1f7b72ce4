#include "workloads/llm.hpp"

#include <string>

#include "common/error.hpp"

namespace cello::workloads {

namespace {

using ir::OpKind;
using ir::OpRank;
using ir::TensorDag;
using ir::TensorDesc;
using ir::TensorId;

}  // namespace

ir::TensorDag build_llm_decode_dag(const LlmShape& shape) {
  CELLO_CHECK(shape.layers > 0 && shape.heads > 0 && shape.d_model > 0);
  CELLO_CHECK_MSG(shape.d_model % shape.heads == 0,
                  "d_model " << shape.d_model << " not divisible by heads " << shape.heads);
  CELLO_CHECK(shape.seq >= 0 && shape.decode_steps > 0);
  const i64 kv_heads = shape.gqa > 0 ? shape.gqa : shape.heads;
  CELLO_CHECK_MSG(kv_heads <= shape.heads && shape.heads % kv_heads == 0,
                  "gqa " << kv_heads << " must divide heads " << shape.heads);
  const i64 d_ff = shape.d_ff > 0 ? shape.d_ff : 4 * shape.d_model;

  TensorDag dag;
  const i64 d = shape.d_model;
  const i64 kv_width = (d / shape.heads) * kv_heads;  ///< K (or V) row width, words
  const i64 T = shape.decode_steps;
  const Bytes w = shape.word_bytes;

  auto add_vec = [&](const std::string& name, const std::string& col_rank, i64 cols) {
    TensorDesc t;
    t.name = name;
    t.ranks = {"m", col_rank};
    t.dims = {1, cols};
    t.word_bytes = w;
    return dag.add_tensor(std::move(t));
  };
  auto add_weight = [&](const std::string& name, const std::string& row_rank, i64 rows,
                        const std::string& col_rank, i64 cols) {
    TensorDesc t;
    t.name = name;
    t.ranks = {row_rank, col_rank};
    t.dims = {rows, cols};
    t.word_bytes = w;
    return dag.add_tensor(std::move(t));
  };
  auto add_cache = [&](const std::string& base, i64 extent, i64 t_idx) {
    TensorDesc t;
    t.name = base + "@" + std::to_string(t_idx);
    t.ranks = {"j", "dk"};
    t.dims = {extent, kv_width};
    t.word_bytes = w;
    return dag.add_tensor(std::move(t));
  };

  // Layer-input hidden states: h0@t are the external token embeddings, hl@t
  // (l >= 1) the outputs of layer l — updated as the layer loop runs.
  std::vector<TensorId> h(static_cast<size_t>(T), ir::kInvalidTensor);
  for (i64 t = 0; t < T; ++t) h[t] = add_vec("h0@" + std::to_string(t), "k", d);

  for (i64 l = 1; l <= shape.layers; ++l) {
    const std::string L = "_" + std::to_string(l);
    // '_' layer suffixes keep each layer's weights and caches distinct bases;
    // '@' step suffixes fold a layer's per-step instances onto one base.
    const TensorId Wqkv = add_weight("Wqkv" + L, "k", d, "n", d + 2 * kv_width);
    const TensorId Wo = add_weight("Wo" + L, "k", d, "n", d);
    const TensorId W1 = add_weight("W1" + L, "k", d, "f", d_ff);
    const TensorId W2 = add_weight("W2" + L, "f", d_ff, "n", d);

    // Prefill cache: extent `seq` before the first decode step (empty when
    // seq = 0 — the chain head then contributes zero bytes).
    TensorId K_prev = add_cache("K" + L, shape.seq, 0);
    TensorId V_prev = add_cache("V" + L, shape.seq, 0);

    for (i64 t = 0; t < T; ++t) {
      const std::string S = "@" + std::to_string(t);
      const i64 extent = shape.seq + t + 1;  ///< cache rows visible to step t

      // Fused Q/K/V projection of the step's single token.
      const TensorId qkv = add_vec("qkv" + L + S, "n", d + 2 * kv_width);
      {
        ir::EinsumOp op;
        op.name = "qkv" + L + S;
        op.inputs = {h[t], Wqkv};
        op.output = qkv;
        op.ranks = {OpRank{"m", 1, false, -1}, OpRank{"k", d, true, -1},
                    OpRank{"n", d + 2 * kv_width, false, -1}};
        dag.add_op(std::move(op));
      }

      // Cache appends: the step's new K/V rows extend the previous extent.
      const TensorId K = add_cache("K" + L, extent, t + 1);
      const TensorId V = add_cache("V" + L, extent, t + 1);
      dag.mark_append(K_prev, K);
      dag.mark_append(V_prev, V);
      {
        ir::EinsumOp op;
        op.name = "k_append" + L + S;
        op.kind = OpKind::Elementwise;
        op.inputs = {K_prev, qkv};
        op.output = K;
        op.ranks = {OpRank{"j", extent, false, -1}, OpRank{"dk", kv_width, false, -1}};
        op.macs_override = kv_width;  // one appended row
        dag.add_op(std::move(op));
      }
      {
        ir::EinsumOp op;
        op.name = "v_append" + L + S;
        op.kind = OpKind::Elementwise;
        op.inputs = {V_prev, qkv};
        op.output = V;
        op.ranks = {OpRank{"j", extent, false, -1}, OpRank{"dk", kv_width, false, -1}};
        op.macs_override = kv_width;
        dag.add_op(std::move(op));
      }

      // q_t . K^T over the grown extent (all heads: seq-extent x d_model MACs
      // regardless of how many KV heads the queries share under GQA).
      const TensorId att = add_vec("att" + L + S, "j", extent);
      {
        ir::EinsumOp op;
        op.name = "attn" + L + S;
        op.inputs = {qkv, K};
        op.output = att;
        op.ranks = {OpRank{"m", 1, false, -1}, OpRank{"j", extent, false, -1},
                    OpRank{"dk", kv_width, true, -1}};
        op.macs_override = extent * d;
        dag.add_op(std::move(op));
      }

      // softmax(att) . V: aggregate the cached values through the scores.
      const TensorId ctx = add_vec("ctx" + L + S, "k", d);
      {
        ir::EinsumOp op;
        op.name = "ctx" + L + S;
        op.inputs = {att, V};
        op.output = ctx;
        op.ranks = {OpRank{"m", 1, false, -1}, OpRank{"j", extent, true, -1},
                    OpRank{"k", d, false, -1}};
        op.macs_override = extent * d;
        dag.add_op(std::move(op));
      }

      // Output projection, then the two MLP GEMMs.
      const TensorId out = add_vec("out" + L + S, "n", d);
      {
        ir::EinsumOp op;
        op.name = "proj" + L + S;
        op.inputs = {ctx, Wo};
        op.output = out;
        op.ranks = {OpRank{"m", 1, false, -1}, OpRank{"k", d, true, -1},
                    OpRank{"n", d, false, -1}};
        dag.add_op(std::move(op));
      }
      const TensorId f = add_vec("f" + L + S, "f", d_ff);
      {
        ir::EinsumOp op;
        op.name = "mlp1" + L + S;
        op.inputs = {out, W1};
        op.output = f;
        op.ranks = {OpRank{"m", 1, false, -1}, OpRank{"k", d, true, -1},
                    OpRank{"f", d_ff, false, -1}};
        dag.add_op(std::move(op));
      }
      const TensorId y = add_vec("h" + std::to_string(l) + S, "k", d);
      {
        ir::EinsumOp op;
        op.name = "mlp2" + L + S;
        op.inputs = {f, W2};
        op.output = y;
        op.ranks = {OpRank{"m", 1, false, -1}, OpRank{"f", d_ff, true, -1},
                    OpRank{"n", d, false, -1}};
        dag.add_op(std::move(op));
        h[t] = y;  // layer l's output is layer l+1's input for this step
      }

      K_prev = K;
      V_prev = V;
    }
  }

  // The decoded sequence: every step's final-layer hidden state.
  for (i64 t = 0; t < T; ++t) dag.mark_result(h[t]);

  return dag;
}

}  // namespace cello::workloads
