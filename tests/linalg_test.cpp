// Tests for the functional linear-algebra substrate: dense kernels, SpMM,
// block CG (Algorithm 1) and BiCGStab.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "linalg/bicgstab.hpp"
#include "linalg/block_cg.hpp"
#include "linalg/dense.hpp"
#include "linalg/spmm.hpp"
#include "sparse/generators.hpp"

namespace {

using namespace cello;
using linalg::DenseMatrix;

DenseMatrix random_matrix(i64 r, i64 c, Rng& rng) {
  DenseMatrix m(r, c);
  for (i64 i = 0; i < r; ++i)
    for (i64 j = 0; j < c; ++j) m(i, j) = rng.uniform(-1, 1);
  return m;
}

TEST(Dense, GemmAgainstHandComputed) {
  DenseMatrix a(2, 3), b(3, 2), c(2, 2);
  double v = 1;
  for (i64 i = 0; i < 2; ++i)
    for (i64 j = 0; j < 3; ++j) a(i, j) = v++;
  v = 1;
  for (i64 i = 0; i < 3; ++i)
    for (i64 j = 0; j < 2; ++j) b(i, j) = v++;
  linalg::gemm(a, b, c);
  EXPECT_DOUBLE_EQ(c(0, 0), 22.0);
  EXPECT_DOUBLE_EQ(c(0, 1), 28.0);
  EXPECT_DOUBLE_EQ(c(1, 0), 49.0);
  EXPECT_DOUBLE_EQ(c(1, 1), 64.0);
}

TEST(Dense, GemmTransposesConsistent) {
  Rng rng(9);
  const auto a = random_matrix(4, 6, rng);
  const auto b = random_matrix(6, 5, rng);
  DenseMatrix c_ref(4, 5), c_t(4, 5);
  linalg::gemm(a, b, c_ref);

  // (A^T)^T * B computed via transpose_a on a pre-transposed A.
  DenseMatrix at(6, 4);
  for (i64 i = 0; i < 4; ++i)
    for (i64 j = 0; j < 6; ++j) at(j, i) = a(i, j);
  linalg::gemm(at, b, c_t, /*transpose_a=*/true);
  EXPECT_LT(linalg::max_abs_diff(c_ref, c_t), 1e-12);

  DenseMatrix bt(5, 6);
  for (i64 i = 0; i < 6; ++i)
    for (i64 j = 0; j < 5; ++j) bt(j, i) = b(i, j);
  DenseMatrix c_bt(4, 5);
  linalg::gemm(a, bt, c_bt, false, /*transpose_b=*/true);
  EXPECT_LT(linalg::max_abs_diff(c_ref, c_bt), 1e-12);
}

TEST(Dense, GemmAccumulateAndAlpha) {
  Rng rng(10);
  const auto a = random_matrix(3, 3, rng);
  const auto b = random_matrix(3, 3, rng);
  DenseMatrix c(3, 3, 1.0);
  linalg::gemm(a, b, c, false, false, 2.0, /*accumulate=*/true);
  DenseMatrix ref(3, 3);
  linalg::gemm(a, b, ref);
  for (i64 i = 0; i < 3; ++i)
    for (i64 j = 0; j < 3; ++j) EXPECT_NEAR(c(i, j), 1.0 + 2.0 * ref(i, j), 1e-12);
}

TEST(Dense, GemmShapeMismatchThrows) {
  DenseMatrix a(2, 3), b(4, 2), c(2, 2);
  EXPECT_THROW(linalg::gemm(a, b, c), Error);
}

TEST(Dense, AddProductAliasSafe) {
  // P = R + P * Phi writes into an operand it reads — the CG line-7 shape.
  Rng rng(11);
  const auto r = random_matrix(5, 3, rng);
  auto p = random_matrix(5, 3, rng);
  const auto p_copy = p;
  const auto phi = random_matrix(3, 3, rng);

  DenseMatrix expected(5, 3);
  linalg::add_product(r, p_copy, phi, expected);
  linalg::add_product(r, p, phi, p);  // aliased output
  EXPECT_LT(linalg::max_abs_diff(expected, p), 1e-12);
}

TEST(Dense, AddProductSign) {
  Rng rng(12);
  const auto a = random_matrix(4, 2, rng);
  const auto b = random_matrix(4, 2, rng);
  const auto s = random_matrix(2, 2, rng);
  DenseMatrix plus(4, 2), minus(4, 2);
  linalg::add_product(a, b, s, plus, +1.0);
  linalg::add_product(a, b, s, minus, -1.0);
  for (i64 i = 0; i < 4; ++i)
    for (i64 j = 0; j < 2; ++j)
      EXPECT_NEAR(plus(i, j) + minus(i, j), 2.0 * a(i, j), 1e-12);
}

TEST(Dense, InverseOfRandomSpd) {
  Rng rng(13);
  const i64 n = 8;
  auto m = random_matrix(n, n, rng);
  for (i64 i = 0; i < n; ++i) m(i, i) += static_cast<double>(n);  // well-conditioned
  const auto inv = linalg::inverse(m);
  DenseMatrix prod(n, n);
  linalg::gemm(m, inv, prod);
  for (i64 i = 0; i < n; ++i)
    for (i64 j = 0; j < n; ++j) EXPECT_NEAR(prod(i, j), i == j ? 1.0 : 0.0, 1e-9);
}

TEST(Dense, InverseSingularThrows) {
  DenseMatrix m(2, 2);  // all zeros
  EXPECT_THROW(linalg::inverse(m), Error);
}

TEST(Dense, Norms) {
  DenseMatrix m(2, 2);
  m(0, 0) = 3;
  m(1, 0) = 4;
  EXPECT_DOUBLE_EQ(m.frobenius_norm(), 5.0);
  EXPECT_DOUBLE_EQ(m.max_col_norm(), 5.0);
}

TEST(Spmm, MatchesDenseReference) {
  Rng rng(14);
  const i64 m = 60, n = 7;
  const auto a = sparse::make_fem_banded(m, 360, rng);
  const auto b = random_matrix(m, n, rng);
  DenseMatrix c(m, n);
  linalg::spmm(a, b, c);

  // Dense reference.
  DenseMatrix a_dense(m, m);
  for (i64 r = 0; r < m; ++r)
    for (i64 k = a.row_ptr()[r]; k < a.row_ptr()[r + 1]; ++k)
      a_dense(r, a.col_idx()[k]) = a.values()[k];
  DenseMatrix ref(m, n);
  linalg::gemm(a_dense, b, ref);
  EXPECT_LT(linalg::max_abs_diff(c, ref), 1e-10);
}

// ---- block CG (Algorithm 1) ------------------------------------------------

class BlockCgTest : public ::testing::TestWithParam<i64> {};  // param: N rhs

TEST_P(BlockCgTest, SolvesSpdSystem) {
  const i64 n_rhs = GetParam();
  Rng rng(15);
  const i64 m = 300;
  const auto a = sparse::make_fem_banded(m, 2100, rng);
  const auto x_true = random_matrix(m, n_rhs, rng);
  DenseMatrix b(m, n_rhs);
  // b = A * x_true.
  linalg::spmm(a, x_true, b);

  const auto res = linalg::block_cg(a, b, {.max_iterations = 400, .tolerance = 1e-10});
  EXPECT_TRUE(res.converged);
  EXPECT_LT(linalg::max_abs_diff(res.x, x_true), 1e-6);
}

TEST_P(BlockCgTest, ResidualDecreasesMonotonicallyOverall) {
  const i64 n_rhs = GetParam();
  Rng rng(16);
  const i64 m = 200;
  const auto a = sparse::make_fem_banded(m, 1200, rng);
  const auto b = random_matrix(m, n_rhs, rng);
  const auto res = linalg::block_cg(a, b, {.max_iterations = 50, .tolerance = 1e-12});
  ASSERT_GE(res.residual_history.size(), 2u);
  EXPECT_LT(res.residual_history.back(), res.residual_history.front());
}

INSTANTIATE_TEST_SUITE_P(RhsSweep, BlockCgTest, ::testing::Values<i64>(1, 4, 16));

TEST(BlockCg, TraceMatchesAlgorithmLineOrder) {
  Rng rng(17);
  const auto a = sparse::make_fem_banded(64, 400, rng);
  const auto b = random_matrix(64, 2, rng);
  std::vector<std::string> lines;
  linalg::block_cg(a, b, {.max_iterations = 3, .tolerance = 0, .fixed_iterations = true},
                   [&](const std::string& line, const std::string&) { lines.push_back(line); });
  // Three full iterations of 1,2a,2b,3,4,5,6,7.
  const std::vector<std::string> expected_iter = {"1", "2a", "2b", "3", "4", "5", "6", "7"};
  ASSERT_EQ(lines.size(), 24u);
  for (size_t i = 0; i < lines.size(); ++i) EXPECT_EQ(lines[i], expected_iter[i % 8]);
}

TEST(BlockCg, FixedIterationsRunExactly) {
  Rng rng(18);
  const auto a = sparse::make_fem_banded(64, 400, rng);
  const auto b = random_matrix(64, 2, rng);
  const auto res =
      linalg::block_cg(a, b, {.max_iterations = 10, .tolerance = 1e-3, .fixed_iterations = true});
  EXPECT_EQ(res.iterations, 10);
}

// ---- BiCGStab ----------------------------------------------------------------

TEST(BiCgStab, SolvesDiagonallyDominantSystem) {
  Rng rng(19);
  const i64 m = 400;
  const auto a = sparse::make_circuit(m, 2800, rng);
  std::vector<double> x_true(m), b(m);
  for (auto& v : x_true) v = rng.uniform(-1, 1);
  a.spmv(x_true, b);

  const auto res = linalg::bicgstab(a, b, {.max_iterations = 400, .tolerance = 1e-10});
  EXPECT_TRUE(res.converged);
  double err = 0;
  for (i64 i = 0; i < m; ++i) err = std::max(err, std::abs(res.x[i] - x_true[i]));
  EXPECT_LT(err, 1e-6);
}

TEST(BiCgStab, ResidualHistoryShrinks) {
  Rng rng(20);
  const auto a = sparse::make_fem_banded(200, 1200, rng);
  std::vector<double> b(200, 1.0);
  const auto res = linalg::bicgstab(
      a, b, {.max_iterations = 20, .tolerance = 1e-14, .fixed_iterations = true});
  ASSERT_GE(res.residual_history.size(), 2u);
  EXPECT_LT(res.residual_history.back(), res.residual_history.front());
}

}  // namespace
