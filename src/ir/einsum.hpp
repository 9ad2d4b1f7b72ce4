// Einsum operator nodes of the tensor-dependency DAG.
//
// Each operator lists its ranks (with extents and contraction roles) and the
// tensors it reads/writes.  Dominance — which rank class the operator's
// largest rank belongs to — drives the dependency classification of SCORE
// (Algorithm 2): 'U' uncontracted-dominant, 'C' contracted-dominant, 'bal'
// when all ranks are of comparable magnitude (Fig. 7 in the paper).
#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"
#include "ir/tensor.hpp"

namespace cello::ir {

using OpId = i32;
inline constexpr OpId kInvalidOp = -1;

enum class OpKind {
  TensorMac,    ///< dense or sparse multiply-accumulate einsum
  Elementwise,  ///< add/sub/scale, no contraction
  Inverse,      ///< small-matrix inversion (lines 2b and 6 of CG)
};

enum class Dominance { Uncontracted, Contracted, Balanced };

const char* to_string(OpKind k);
const char* to_string(Dominance d);

/// One rank of an einsum operator.
struct OpRank {
  std::string name;
  i64 size = 1;
  bool contracted = false;
  /// Effective traversal extent when the rank is stored compressed (e.g. the
  /// contracted rank of an SpMM walks nnz-per-row elements, not the full
  /// dimension).  Defaults to `size`.
  i64 effective_size = -1;

  i64 effective() const { return effective_size >= 0 ? effective_size : size; }
};

struct EinsumOp {
  OpId id = kInvalidOp;
  std::string name;
  OpKind kind = OpKind::TensorMac;

  std::vector<OpRank> ranks;
  std::vector<TensorId> inputs;
  TensorId output = kInvalidTensor;

  /// Multiply-accumulate count; derived from rank extents unless overridden
  /// (sparse operators set this to nnz * uncontracted extents).
  i64 macs_override = -1;

  /// Ratio above which the largest rank is considered to dominate the others.
  static constexpr double kDominanceRatio = 16.0;

  i64 macs() const;
  /// Name of the rank with the largest effective extent.
  const OpRank& dominant_rank() const;
  Dominance dominance() const;
};

}  // namespace cello::ir
