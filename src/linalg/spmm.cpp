#include "linalg/spmm.hpp"

namespace cello::linalg {

void spmm(const sparse::CsrMatrix& a, const DenseMatrix& b, DenseMatrix& c) {
  CELLO_CHECK(a.cols() == b.rows());
  CELLO_CHECK(c.rows() == a.rows() && c.cols() == b.cols());
  const i64 n = b.cols();
  for (i64 r = 0; r < a.rows(); ++r) {
    auto out = c.row(r);
    for (i64 j = 0; j < n; ++j) out[j] = 0.0;
    for (i64 k = a.row_ptr()[r]; k < a.row_ptr()[r + 1]; ++k) {
      const double v = a.values()[k];
      const auto brow = b.row(a.col_idx()[k]);
      for (i64 j = 0; j < n; ++j) out[j] += v * brow[j];
    }
  }
}

}  // namespace cello::linalg
