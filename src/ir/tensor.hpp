// Tensor descriptors for the tensor-dependency IR.
//
// Tensors carry global rank names ("m", "n", "k", ...) so the scheduler can
// reason about which ranks are shared between a producer and a consumer, and
// whether a consumer's dominant rank appears in the tensor at all (the
// "unshared dominance" test of Algorithm 2 in the paper).
#pragma once

#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace cello::ir {

using TensorId = i32;
inline constexpr TensorId kInvalidTensor = -1;

/// Storage format of a tensor operand.
enum class Storage {
  Dense,
  CompressedSparse,  ///< CSR/CSC; bytes derived from nnz (values + column ids + row pointers)
};

struct TensorDesc {
  TensorId id = kInvalidTensor;
  std::string name;

  /// Rank names in layout-major order (outermost first), e.g. {"m", "n"}.
  std::vector<std::string> ranks;
  /// Extent of each rank, aligned with `ranks`.
  std::vector<i64> dims;

  Bytes word_bytes = 4;
  Storage storage = Storage::Dense;
  /// Number of stored non-zeros (CompressedSparse only).
  i64 nnz = 0;
  /// Final result the workload must drain to memory (e.g. the CG solution X).
  /// Dead non-result intermediates need never be written back by a scheduler
  /// that knows tensor liveness (SCORE does; op-by-op baselines do not).
  bool is_result = false;
  /// Append-only base annotation (KV-cache decode): instances of the base
  /// form a chain where each step's version extends — never rewrites — the
  /// previous one.  `append_prev` links to the preceding instance in the
  /// chain (kInvalidTensor for the chain head), so a buffer policy can price
  /// the step's write as `bytes() - prev.bytes()` instead of the full
  /// footprint.  Set via TensorDag::mark_append.
  bool append_only = false;
  TensorId append_prev = kInvalidTensor;

  i64 elements() const {
    if (storage == Storage::CompressedSparse) return nnz;
    i64 e = 1;
    for (i64 d : dims) e *= d;
    return e;
  }

  /// Footprint in bytes as moved over the memory system.  Compressed tensors
  /// account for values, coordinate metadata (4B per nnz) and row pointers.
  Bytes bytes() const {
    if (storage == Storage::CompressedSparse) {
      const Bytes values = static_cast<Bytes>(nnz) * word_bytes;
      const Bytes coords = static_cast<Bytes>(nnz) * 4;
      const Bytes rowptr = (dims.empty() ? 0 : static_cast<Bytes>(dims.front()) + 1) * 4;
      return values + coords + rowptr;
    }
    return static_cast<Bytes>(elements()) * word_bytes;
  }

  bool has_rank(const std::string& r) const {
    for (const auto& x : ranks)
      if (x == r) return true;
    return false;
  }

  i64 dim_of(const std::string& r) const {
    for (size_t i = 0; i < ranks.size(); ++i)
      if (ranks[i] == r) return dims[i];
    CELLO_CHECK_MSG(false, "tensor " << name << " has no rank " << r);
    return 0;
  }
};

}  // namespace cello::ir
