// Byte-granular access-span generation for the trace-driven cache path.  One
// templated emitter derives the op's whole access sequence — sequential CSR
// segments, gather runs resolved through row_ptr/col_idx, small-operand
// re-streams, output writebacks — and hands each span to a caller-supplied
// sink.  AccessStream::capture records the spans for replay; it is the one
// place that decides which bytes an op touches and in which order.
//
// Every per-chunk decision that does not depend on the row range — the
// gather-run mergeability test, the real-vs-synthetic trace selection, the
// synthetic band occupancy, base addresses and row strides — is resolved once
// per op ahead of the chunk loop.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "ir/dag.hpp"
#include "sim/address_map.hpp"
#include "sim/config.hpp"
#include "sparse/csr.hpp"

namespace cello::sim {

/// Everything span emission reads about one scheduled op.
struct OpTrace {
  const ir::TensorDag* dag = nullptr;
  const ir::EinsumOp* op = nullptr;
  const AddressMap* map = nullptr;
  const sparse::CsrMatrix* matrix = nullptr;  ///< real sparsity; may be null
  /// Unique inputs routed to the buffer, in operand order (the schedule may
  /// service the others on chip).
  std::vector<ir::TensorId> inputs;
  bool service_output = true;  ///< false when the output stays on chip
};

/// Reusable operand-partition scratch so emission allocates nothing on the
/// steady path (op arity is tiny; capacity persists across ops).
struct OpAccessScratch {
  std::vector<const ir::TensorDesc*> large_in;
  std::vector<std::pair<Addr, Bytes>> small_in;  ///< (start, bytes)
};

/// Emit the byte-granular access spans of one scheduled op, in order, as
/// span(Addr start, Bytes len, bool write) calls (len may be 0).
template <class SpanFn>
void emit_op_accesses(const OpTrace& trace, const AcceleratorConfig& arch,
                      OpAccessScratch& scratch, SpanFn&& span) {
  const ir::TensorDag& dag = *trace.dag;
  const ir::EinsumOp& op = *trace.op;
  const AddressMap& map = *trace.map;
  const sparse::CsrMatrix* matrix = trace.matrix;

  constexpr i64 kChunkRows = 512;

  // Identify the sparse operand (if any) and split the rest by size.
  const ir::TensorDesc* sparse_in = nullptr;
  auto& large_in = scratch.large_in;
  auto& small_in = scratch.small_in;
  large_in.clear();
  small_in.clear();
  for (ir::TensorId in : trace.inputs) {
    const ir::TensorDesc& t = dag.tensor(in);
    if (t.storage == ir::Storage::CompressedSparse)
      sparse_in = &t;
    else if (t.bytes() > arch.rf_bytes)
      large_in.push_back(&t);
    else
      small_in.push_back({map.of(t.id).start, t.bytes()});
  }
  const ir::TensorDesc& out = dag.tensor(op.output);

  // The op's iteration space along the large (row) dimension.
  i64 rows = 1;
  for (const auto& r : op.ranks) rows = std::max(rows, r.size);
  if (sparse_in == nullptr && large_in.empty() && out.bytes() <= arch.rf_bytes) rows = 1;

  auto row_bytes = [](const ir::TensorDesc& t) -> Bytes {
    const i64 r = t.dims.empty() ? 1 : t.dims.front();
    return std::max<Bytes>(1, t.bytes() / std::max<i64>(1, r));
  };

  // Loop-invariant address bases and per-chunk decisions, resolved once per
  // op rather than per 512-row chunk (and, for the CSR gather, per nonzero).
  const Addr sparse_start = sparse_in != nullptr ? map.of(sparse_in->id).start : 0;
  const bool real_trace =
      sparse_in != nullptr && matrix != nullptr && matrix->rows() == rows;
  const i64* row_ptr = real_trace ? matrix->row_ptr().data() : nullptr;
  const i64* col_idx = real_trace ? matrix->col_idx().data() : nullptr;
  const ir::TensorDesc* gather_dense = nullptr;
  Addr gather_start = 0;
  Bytes gather_rb = 0;
  if (sparse_in != nullptr && !large_in.empty()) {
    gather_dense = large_in.front();
    gather_start = map.of(gather_dense->id).start;
    gather_rb = row_bytes(*gather_dense);
  }
  // When dense rows are whole aligned cache lines, byte ranges of consecutive
  // columns are contiguous and share no line — so a run of consecutive
  // columns emits as ONE range, touching exactly the same lines in the same
  // order as per-column spans.  Banded matrices (most of Table VI) are nearly
  // all such runs.
  const bool mergeable = gather_dense != nullptr &&
                         gather_rb % arch.line_bytes == 0 &&
                         gather_start % arch.line_bytes == 0;
  const Bytes synth_per_row =
      sparse_in != nullptr && !real_trace ? sparse_in->bytes() / std::max<i64>(1, rows) : 0;
  const i64 synth_occ = sparse_in != nullptr && !real_trace
                            ? std::max<i64>(1, sparse_in->nnz / std::max<i64>(1, rows))
                            : 0;
  const bool out_serviced = trace.service_output;
  const bool out_large = out.bytes() > arch.rf_bytes;
  const Addr out_start = out_serviced ? map.of(out.id).start : 0;
  const Bytes out_rb = out_serviced && out_large ? row_bytes(out) : 0;

  for (i64 r0 = 0; r0 < rows; r0 += kChunkRows) {
    const i64 r1 = std::min(rows, r0 + kChunkRows);

    if (sparse_in != nullptr) {
      // CSR segment of the chunk: values + columns stream sequentially.
      Bytes seg_off = 0, seg_len = 0;
      if (real_trace) {
        const i64 k0 = row_ptr[r0], k1 = row_ptr[r1];
        seg_off = static_cast<Bytes>(k0) * 8;
        seg_len = static_cast<Bytes>(k1 - k0) * 8;
      } else {
        seg_off = static_cast<Bytes>(r0) * synth_per_row;
        seg_len = static_cast<Bytes>(r1 - r0) * synth_per_row;
      }
      span(sparse_start + seg_off, seg_len, false);

      // Gather the dense operand rows indexed by the chunk's non-zeros.
      if (gather_dense != nullptr) {
        if (real_trace) {
          const i64 k1 = row_ptr[r1];
          for (i64 k = row_ptr[r0]; k < k1;) {
            const i64 c0 = col_idx[k];
            i64 c_end = c0 + 1;
            ++k;
            if (mergeable)
              while (k < k1 && col_idx[k] == c_end) {
                ++c_end;
                ++k;
              }
            span(gather_start + static_cast<Bytes>(c0) * gather_rb,
                 static_cast<Bytes>(c_end - c0) * gather_rb, false);
          }
        } else {
          // Synthetic banded gather when no matrix is supplied: row r touches
          // the clamped column band [r - occ/2, r + occ/2).
          for (i64 r = r0; r < r1; ++r) {
            i64 k = 0;
            while (k < synth_occ) {
              const i64 c0 = std::min<i64>(rows - 1, std::max<i64>(0, r + k - synth_occ / 2));
              i64 c_end = c0 + 1;
              ++k;
              if (mergeable)
                while (k < synth_occ &&
                       std::min<i64>(rows - 1, std::max<i64>(0, r + k - synth_occ / 2)) ==
                           c_end) {
                  ++c_end;
                  ++k;
                }
              span(gather_start + static_cast<Bytes>(c0) * gather_rb,
                   static_cast<Bytes>(c_end - c0) * gather_rb, false);
            }
          }
        }
      }
    } else {
      for (const auto* t : large_in) {
        const Bytes rb = row_bytes(*t);
        span(map.of(t->id).start + static_cast<Bytes>(r0) * rb,
             static_cast<Bytes>(r1 - r0) * rb, false);
      }
    }

    // Small operands re-streamed per chunk (they hit once resident).
    for (const auto& [a, b] : small_in) span(a, b, false);

    // Output chunk: skewed outputs stream; small outputs accumulate (RMW).
    if (out_serviced) {
      if (out_large) {
        span(out_start + static_cast<Bytes>(r0) * out_rb,
             static_cast<Bytes>(r1 - r0) * out_rb, true);
      } else {
        span(out_start, out.bytes(), true);
      }
    }
  }
}

}  // namespace cello::sim
