#include "workloads/llm.hpp"

#include <string>

#include "common/error.hpp"
#include "workloads/dag_builder.hpp"

namespace cello::workloads {

ir::TensorDag build_llm_decode_dag(const LlmShape& shape) {
  CELLO_CHECK(shape.layers > 0 && shape.heads > 0 && shape.d_model > 0);
  CELLO_CHECK_MSG(shape.d_model % shape.heads == 0,
                  "d_model " << shape.d_model << " not divisible by heads " << shape.heads);
  CELLO_CHECK(shape.seq >= 0 && shape.decode_steps > 0);
  const i64 kv_heads = shape.gqa > 0 ? shape.gqa : shape.heads;
  CELLO_CHECK_MSG(kv_heads <= shape.heads && shape.heads % kv_heads == 0,
                  "gqa " << kv_heads << " must divide heads " << shape.heads);
  const i64 d_ff = shape.d_ff > 0 ? shape.d_ff : 4 * shape.d_model;

  ir::TensorDag dag;
  const i64 d = shape.d_model;
  const i64 kv_width = (d / shape.heads) * kv_heads;  ///< K (or V) row width, words
  const i64 qkv_width = d + 2 * kv_width;
  const i64 T = shape.decode_steps;
  const Bytes w = shape.word_bytes;

  // Layer-input hidden states: h0@t are the external token embeddings, hl@t
  // (l >= 1) the outputs of layer l — updated as the layer loop runs.
  std::vector<ir::TensorId> h(static_cast<size_t>(T), ir::kInvalidTensor);
  for (i64 t = 0; t < T; ++t) h[t] = add_dense(dag, numbered("h0@", t), "m", 1, "k", d, w);

  for (i64 l = 1; l <= shape.layers; ++l) {
    const std::string L = numbered("_", l);
    // '_' layer suffixes keep each layer's weights and caches distinct bases;
    // '@' step suffixes fold a layer's per-step instances onto one base.
    const ir::TensorId Wqkv = add_dense(dag, "Wqkv" + L, "k", d, "n", qkv_width, w);
    const ir::TensorId Wo = add_dense(dag, "Wo" + L, "k", d, "n", d, w);
    const ir::TensorId W1 = add_dense(dag, "W1" + L, "k", d, "f", d_ff, w);
    const ir::TensorId W2 = add_dense(dag, "W2" + L, "f", d_ff, "n", d, w);

    // Prefill cache: extent `seq` before the first decode step (empty when
    // seq = 0 — the chain head then contributes zero bytes).
    ir::TensorId K_prev = add_dense(dag, "K" + L + "@0", "j", shape.seq, "dk", kv_width, w);
    ir::TensorId V_prev = add_dense(dag, "V" + L + "@0", "j", shape.seq, "dk", kv_width, w);

    for (i64 t = 0; t < T; ++t) {
      const std::string S = numbered("@", t);
      const std::string next = numbered("@", t + 1);
      const i64 extent = shape.seq + t + 1;  ///< cache rows visible to step t

      // Fused Q/K/V projection of the step's single token.
      const ir::TensorId qkv = add_dense(dag, "qkv" + L + S, "m", 1, "n", qkv_width, w);
      add_gemm(dag, "qkv" + L + S, h[t], Wqkv, qkv);

      // Cache appends: the step's new K/V rows (one row each) extend the
      // previous extent.
      const ir::TensorId K = add_dense(dag, "K" + L + next, "j", extent, "dk", kv_width, w);
      const ir::TensorId V = add_dense(dag, "V" + L + next, "j", extent, "dk", kv_width, w);
      dag.mark_append(K_prev, K);
      dag.mark_append(V_prev, V);
      add_einsum(dag, "k_append" + L + S, {K_prev, qkv}, K, {{"j", extent}, {"dk", kv_width}},
                 kv_width, ir::OpKind::Elementwise);
      add_einsum(dag, "v_append" + L + S, {V_prev, qkv}, V, {{"j", extent}, {"dk", kv_width}},
                 kv_width, ir::OpKind::Elementwise);

      // q_t . K^T over the grown extent (all heads: seq-extent x d_model MACs
      // regardless of how many KV heads the queries share under GQA).
      const ir::TensorId att = add_dense(dag, "att" + L + S, "m", 1, "j", extent, w);
      add_einsum(dag, "attn" + L + S, {qkv, K}, att,
                 {{"m", 1}, {"j", extent}, {"dk", kv_width, true}}, extent * d);

      // softmax(att) . V: aggregate the cached values through the scores.
      const ir::TensorId ctx = add_dense(dag, "ctx" + L + S, "m", 1, "k", d, w);
      add_einsum(dag, "ctx" + L + S, {att, V}, ctx, {{"m", 1}, {"j", extent, true}, {"k", d}},
                 extent * d);

      // Output projection, then the two MLP GEMMs; layer l's output is layer
      // l+1's input for this step.
      const ir::TensorId out = add_dense(dag, "out" + L + S, "m", 1, "n", d, w);
      add_gemm(dag, "proj" + L + S, ctx, Wo, out);
      const ir::TensorId f = add_dense(dag, "f" + L + S, "m", 1, "f", d_ff, w);
      add_gemm(dag, "mlp1" + L + S, out, W1, f);
      const ir::TensorId y = add_dense(dag, numbered("h", l) + S, "m", 1, "k", d, w);
      add_gemm(dag, "mlp2" + L + S, f, W2, y);
      h[t] = y;

      K_prev = K;
      V_prev = V;
    }
  }

  // The decoded sequence: every step's final-layer hidden state.
  for (i64 t = 0; t < T; ++t) dag.mark_result(h[t]);

  return dag;
}

}  // namespace cello::workloads
