// Compressed sparse row/column matrices — the storage substrate the paper's
// SpMM operator (line 1 of CG) runs on.  CHORD stores data and metadata in
// this format (Sec. V-B "Handling sparsity").
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"

namespace cello::sparse {

/// One coordinate-format entry used while assembling a matrix.
struct Triplet {
  i64 row = 0;
  i64 col = 0;
  double value = 0.0;
};

class CsrMatrix {
 public:
  CsrMatrix() = default;

  /// Build from triplets in any order; duplicate coordinates are summed in
  /// input order.  Linear in rows + entries when rows are short (a counting
  /// sort by row, then an insertion sort of each row by column).  Throws
  /// cello::Error on an out-of-range coordinate.
  static CsrMatrix from_triplets(i64 rows, i64 cols, std::vector<Triplet> entries);

  /// Adopt CSR arrays as they are.  Throws cello::Error unless they satisfy
  /// the validate() invariants.
  static CsrMatrix from_rows(i64 rows, i64 cols, std::vector<i64> row_ptr,
                             std::vector<i64> col_idx, std::vector<double> values);

  i64 rows() const { return rows_; }
  i64 cols() const { return cols_; }
  i64 nnz() const { return static_cast<i64>(values_.size()); }

  std::span<const i64> row_ptr() const { return row_ptr_; }
  std::span<const i64> col_idx() const { return col_idx_; }
  std::span<const double> values() const { return values_; }

  i64 row_nnz(i64 r) const { return row_ptr_[r + 1] - row_ptr_[r]; }
  double avg_row_nnz() const;

  /// Bytes moved when streaming this matrix (values + column ids + row ptrs),
  /// matching ir::TensorDesc::bytes for compressed tensors.
  Bytes stream_bytes(Bytes word_bytes = 4) const {
    return static_cast<Bytes>(nnz()) * (word_bytes + 4) + static_cast<Bytes>(rows_ + 1) * 4;
  }

  /// y = A * x for a single dense vector.
  void spmv(std::span<const double> x, std::span<double> y) const;

  /// Structural invariants: sorted column indices per row, monotone row_ptr,
  /// indices in range.  Throws cello::Error on violation.
  void validate() const;

 private:
  i64 rows_ = 0;
  i64 cols_ = 0;
  std::vector<i64> row_ptr_;
  std::vector<i64> col_idx_;
  std::vector<double> values_;
};

}  // namespace cello::sparse
