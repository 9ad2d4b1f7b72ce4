#include "sparse/csr.hpp"

#include <algorithm>
#include <tuple>
#include <utility>

#include "common/error.hpp"

namespace cello::sparse {

namespace {

/// Rows up to this long are insertion-sorted in place; longer ones (a dense
/// row of a Matrix Market file) go through a row-sized buffer, so no input
/// makes assembly quadratic.
constexpr i64 kInsertionSortMax = 32;

/// Stable sort of entries [begin, end) by column: equal columns keep their
/// input order.
void sort_row(std::vector<i64>& col_idx, std::vector<double>& values, i64 begin, i64 end,
              std::vector<std::pair<i64, double>>& buffer) {
  if (end - begin > kInsertionSortMax) {
    buffer.clear();
    for (i64 k = begin; k < end; ++k) buffer.emplace_back(col_idx[k], values[k]);
    std::stable_sort(buffer.begin(), buffer.end(),
                     [](const auto& a, const auto& b) { return a.first < b.first; });
    for (i64 k = begin; k < end; ++k) std::tie(col_idx[k], values[k]) = buffer[k - begin];
    return;
  }
  for (i64 k = begin + 1; k < end; ++k) {
    const i64 c = col_idx[k];
    const double v = values[k];
    i64 j = k;
    for (; j > begin && col_idx[j - 1] > c; --j) {
      col_idx[j] = col_idx[j - 1];
      values[j] = values[j - 1];
    }
    col_idx[j] = c;
    values[j] = v;
  }
}

}  // namespace

CsrMatrix CsrMatrix::from_triplets(i64 rows, i64 cols, std::vector<Triplet> entries) {
  CELLO_CHECK_MSG(rows >= 0 && cols >= 0, "negative matrix shape " << rows << " x " << cols);
  std::vector<i64> row_ptr(static_cast<size_t>(rows) + 1, 0);
  for (const auto& t : entries) {
    CELLO_CHECK_MSG(t.row >= 0 && t.row < rows, "triplet row out of range: " << t.row);
    CELLO_CHECK_MSG(t.col >= 0 && t.col < cols, "triplet col out of range: " << t.col);
    ++row_ptr[t.row + 1];
  }
  for (i64 r = 0; r < rows; ++r) row_ptr[r + 1] += row_ptr[r];

  // Scatter each entry to the next free slot of its row, in input order.
  std::vector<i64> col_idx(entries.size());
  std::vector<double> values(entries.size());
  {
    std::vector<i64> next(row_ptr.begin(), row_ptr.end() - 1);
    for (const auto& t : entries) {
      const i64 k = next[t.row]++;
      col_idx[k] = t.col;
      values[k] = t.value;
    }
  }
  std::vector<Triplet>().swap(entries);

  // The stable row sort keeps duplicates in input order, so their sum is
  // too.  Compacting in place is safe because the write cursor never passes
  // the row being read.
  std::vector<std::pair<i64, double>> buffer;
  i64 out = 0;
  for (i64 r = 0; r < rows; ++r) {
    const i64 begin = row_ptr[r];
    const i64 end = row_ptr[r + 1];
    sort_row(col_idx, values, begin, end, buffer);
    row_ptr[r] = out;
    for (i64 k = begin; k < end; ++k) {
      if (out > row_ptr[r] && col_idx[out - 1] == col_idx[k]) {
        values[out - 1] += values[k];
      } else {
        col_idx[out] = col_idx[k];
        values[out] = values[k];
        ++out;
      }
    }
  }
  row_ptr[rows] = out;
  col_idx.resize(static_cast<size_t>(out));
  values.resize(static_cast<size_t>(out));
  return from_rows(rows, cols, std::move(row_ptr), std::move(col_idx), std::move(values));
}

CsrMatrix CsrMatrix::from_rows(i64 rows, i64 cols, std::vector<i64> row_ptr,
                               std::vector<i64> col_idx, std::vector<double> values) {
  CELLO_CHECK_MSG(rows >= 0 && cols >= 0, "negative matrix shape " << rows << " x " << cols);
  CELLO_CHECK_MSG(col_idx.size() == values.size(),
                  col_idx.size() << " column ids for " << values.size() << " values");
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_ = std::move(row_ptr);
  m.col_idx_ = std::move(col_idx);
  m.values_ = std::move(values);
  m.validate();
  return m;
}

double CsrMatrix::avg_row_nnz() const {
  return rows_ == 0 ? 0.0 : static_cast<double>(nnz()) / static_cast<double>(rows_);
}

void CsrMatrix::spmv(std::span<const double> x, std::span<double> y) const {
  CELLO_CHECK(static_cast<i64>(x.size()) == cols_);
  CELLO_CHECK(static_cast<i64>(y.size()) == rows_);
  for (i64 r = 0; r < rows_; ++r) {
    double acc = 0.0;
    for (i64 k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) acc += values_[k] * x[col_idx_[k]];
    y[r] = acc;
  }
}

void CsrMatrix::validate() const {
  CELLO_CHECK(static_cast<i64>(row_ptr_.size()) == rows_ + 1);
  CELLO_CHECK(row_ptr_.front() == 0);
  CELLO_CHECK(row_ptr_.back() == nnz());
  // Monotone first, so every row's range lies inside the column arrays.
  for (i64 r = 0; r < rows_; ++r)
    CELLO_CHECK_MSG(row_ptr_[r] <= row_ptr_[r + 1], "row_ptr not monotone at row " << r);
  for (i64 r = 0; r < rows_; ++r) {
    for (i64 k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      CELLO_CHECK(col_idx_[k] >= 0 && col_idx_[k] < cols_);
      if (k + 1 < row_ptr_[r + 1])
        CELLO_CHECK_MSG(col_idx_[k] < col_idx_[k + 1], "unsorted columns in row " << r);
    }
  }
}

}  // namespace cello::sparse
