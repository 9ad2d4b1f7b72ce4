// Tests for the sparse substrate: CSR container, synthetic generators
// (parameterized over the Table VI datasets) and Matrix Market I/O.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "sparse/csr.hpp"
#include "sparse/datasets.hpp"
#include "sparse/generators.hpp"
#include "sparse/matrix_market.hpp"

namespace {

using namespace cello;
using sparse::CsrMatrix;
using sparse::Triplet;

TEST(Csr, FromTripletsSortsAndSumsDuplicates) {
  const std::vector<Triplet> ts = {{1, 2, 3.0}, {0, 0, 1.0}, {1, 2, 2.0}, {1, 0, 4.0}};
  const auto m = CsrMatrix::from_triplets(2, 3, ts);
  m.validate();
  EXPECT_EQ(m.nnz(), 3);
  EXPECT_EQ(m.row_nnz(0), 1);
  EXPECT_EQ(m.row_nnz(1), 2);
  // Row 1: (0, 4.0), (2, 5.0) — duplicates summed, columns sorted.
  EXPECT_EQ(m.col_idx()[1], 0);
  EXPECT_DOUBLE_EQ(m.values()[2], 5.0);
}

TEST(Csr, RejectsOutOfRangeTriplets) {
  EXPECT_THROW(CsrMatrix::from_triplets(2, 2, {{2, 0, 1.0}}), Error);
  EXPECT_THROW(CsrMatrix::from_triplets(2, 2, {{0, -1, 1.0}}), Error);
}

TEST(Csr, SpmvMatchesDense) {
  const auto m = CsrMatrix::from_triplets(3, 3, {{0, 0, 2.0}, {0, 2, 1.0}, {1, 1, 3.0},
                                                 {2, 0, -1.0}, {2, 2, 4.0}});
  const std::vector<double> x = {1.0, 2.0, 3.0};
  std::vector<double> y(3);
  m.spmv(x, y);
  EXPECT_DOUBLE_EQ(y[0], 5.0);
  EXPECT_DOUBLE_EQ(y[1], 6.0);
  EXPECT_DOUBLE_EQ(y[2], 11.0);
}

TEST(Csr, StreamBytesFormula) {
  const auto m = CsrMatrix::from_triplets(4, 4, {{0, 0, 1.0}, {3, 3, 1.0}});
  EXPECT_EQ(m.stream_bytes(4), 2u * 8 + 5u * 4);
}

TEST(Csr, RowOccupancyStats) {
  const auto m = CsrMatrix::from_triplets(3, 3, {{0, 0, 1.0}, {0, 1, 1.0}, {1, 1, 1.0}});
  EXPECT_EQ(m.row_nnz(0), 2);
  EXPECT_NEAR(m.avg_row_nnz(), 1.0, 1e-12);
}

// ---- generators (parameterized over the Table VI datasets) -----------------

class DatasetGeneratorTest : public ::testing::TestWithParam<sparse::DatasetSpec> {};

TEST_P(DatasetGeneratorTest, MatchesPublishedShapeStats) {
  const auto& spec = GetParam();
  const auto m = sparse::instantiate(spec);
  m.validate();
  EXPECT_EQ(m.rows(), spec.rows);
  EXPECT_EQ(m.cols(), spec.rows);
  // nnz within 25% of the published count (duplicate collapses / symmetry).
  EXPECT_GT(m.nnz(), spec.nnz * 3 / 4) << spec.name;
  EXPECT_LT(m.nnz(), spec.nnz * 5 / 4) << spec.name;
}

TEST_P(DatasetGeneratorTest, DeterministicAcrossCalls) {
  const auto& spec = GetParam();
  const auto a = sparse::instantiate(spec);
  const auto b = sparse::instantiate(spec);
  ASSERT_EQ(a.nnz(), b.nnz());
  for (i64 k = 0; k < std::min<i64>(a.nnz(), 500); ++k)
    EXPECT_DOUBLE_EQ(a.values()[k], b.values()[k]);
}

INSTANTIATE_TEST_SUITE_P(Table6, DatasetGeneratorTest,
                         ::testing::ValuesIn(sparse::table6_datasets()),
                         [](const ::testing::TestParamInfo<sparse::DatasetSpec>& info) {
                           return info.param.name;
                         });

TEST(Generators, FemBandedIsDiagonallyDominant) {
  Rng rng(1);
  const auto m = sparse::make_fem_banded(500, 3500, rng);
  for (i64 r = 0; r < m.rows(); ++r) {
    double diag = 0, off = 0;
    for (i64 k = m.row_ptr()[r]; k < m.row_ptr()[r + 1]; ++k) {
      if (m.col_idx()[k] == r)
        diag = m.values()[k];
      else
        off += std::abs(m.values()[k]);
    }
    EXPECT_GT(diag, off) << "row " << r;
  }
}

TEST(Generators, CircuitHasIrregularRows) {
  Rng rng(2);
  const auto m = sparse::make_circuit(2000, 14000, rng);
  i64 max_row = 0;
  for (i64 r = 0; r < m.rows(); ++r) max_row = std::max(max_row, m.row_nnz(r));
  EXPECT_GT(static_cast<double>(max_row), 2.0 * m.avg_row_nnz());  // hub rows exist
}

TEST(Generators, PowerLawGraphRowsAreNormalized) {
  Rng rng(3);
  const auto m = sparse::make_powerlaw_graph(1000, 5000, rng);
  for (i64 r = 0; r < m.rows(); ++r) {
    double s = 0;
    for (i64 k = m.row_ptr()[r]; k < m.row_ptr()[r + 1]; ++k) s += m.values()[k];
    EXPECT_NEAR(s, 1.0, 1e-9) << "row " << r;
  }
}

TEST(Generators, DatasetLookup) {
  EXPECT_EQ(sparse::dataset_by_name("fv1").rows, 9604);
  EXPECT_EQ(sparse::dataset_by_name("cora").gnn_in_features, 1433);
  EXPECT_THROW(sparse::dataset_by_name("nope"), Error);
}

// ---- matrix market ----------------------------------------------------------

TEST(MatrixMarket, RoundTrip) {
  const auto m = CsrMatrix::from_triplets(3, 4, {{0, 1, 2.5}, {2, 3, -1.0}, {1, 0, 7.0}});
  std::stringstream ss;
  sparse::write_matrix_market(m, ss);
  const auto back = sparse::read_matrix_market(ss);
  ASSERT_EQ(back.rows(), 3);
  ASSERT_EQ(back.cols(), 4);
  ASSERT_EQ(back.nnz(), 3);
  for (i64 k = 0; k < 3; ++k) EXPECT_DOUBLE_EQ(back.values()[k], m.values()[k]);
}

TEST(MatrixMarket, ReadsSymmetric) {
  std::stringstream ss("%%MatrixMarket matrix coordinate real symmetric\n"
                       "3 3 2\n1 1 5.0\n3 1 2.0\n");
  const auto m = sparse::read_matrix_market(ss);
  EXPECT_EQ(m.nnz(), 3);  // (0,0), (2,0), (0,2)
  std::vector<double> x = {1, 0, 0}, y(3);
  m.spmv(x, y);
  EXPECT_DOUBLE_EQ(y[2], 2.0);
  EXPECT_DOUBLE_EQ(y[0], 5.0);
}

TEST(MatrixMarket, ReadsPattern) {
  std::stringstream ss("%%MatrixMarket matrix coordinate pattern general\n"
                       "2 2 2\n1 1\n2 2\n");
  const auto m = sparse::read_matrix_market(ss);
  EXPECT_EQ(m.nnz(), 2);
  EXPECT_DOUBLE_EQ(m.values()[0], 1.0);
}

TEST(MatrixMarket, RejectsGarbage) {
  std::stringstream ss("not a matrix\n");
  EXPECT_THROW(sparse::read_matrix_market(ss), Error);
}

TEST(MatrixMarket, RejectsTruncatedBody) {
  std::stringstream ss("%%MatrixMarket matrix coordinate real general\n3 3 5\n1 1 1.0\n");
  EXPECT_THROW(sparse::read_matrix_market(ss), Error);
}

}  // namespace
