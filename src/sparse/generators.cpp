#include "sparse/generators.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/error.hpp"

namespace cello::sparse {
namespace {

/// Symmetrize a triplet list (add the transpose entries, halving values so
/// the diagonal scale stays comparable).
void symmetrize(std::vector<Triplet>& ts) {
  const size_t n = ts.size();
  for (size_t i = 0; i < n; ++i)
    if (ts[i].row != ts[i].col) ts.push_back({ts[i].col, ts[i].row, ts[i].value});
}

}  // namespace

CsrMatrix make_fem_banded(i64 n, i64 target_nnz, Rng& rng) {
  CELLO_CHECK(n > 0 && target_nnz >= n);
  // Average off-diagonal band width that hits the nnz target: nnz ~ n * (1 + 2*halfband_used)
  const i64 per_row = std::max<i64>(1, target_nnz / n);
  const i64 half = std::max<i64>(1, (per_row - 1) / 2);

  std::vector<Triplet> ts;
  ts.reserve(static_cast<size_t>(target_nnz) + n);
  for (i64 r = 0; r < n; ++r) ts.push_back({r, r, 4.0 + rng.uniform()});
  // FEM stencils couple nearby unknowns: offsets 1..half plus an occasional
  // long-range coupling (mesh wrap), keeping rows around per_row entries.
  for (i64 r = 0; r < n; ++r) {
    for (i64 d = 1; d <= half; ++d) {
      const i64 c = r + d;
      if (c < n) {
        const double v = -1.0 / static_cast<double>(d);
        ts.push_back({r, c, v});
        ts.push_back({c, r, v});
      }
    }
  }
  // Top up with random symmetric couplings until we reach the target.
  while (static_cast<i64>(ts.size()) < target_nnz && n > 2) {
    const i64 r = static_cast<i64>(rng.bounded(static_cast<u64>(n)));
    const i64 c = static_cast<i64>(rng.bounded(static_cast<u64>(n)));
    if (r == c) continue;
    ts.push_back({r, c, -0.1});
    ts.push_back({c, r, -0.1});
  }
  auto m = CsrMatrix::from_triplets(n, n, std::move(ts));
  return diagonally_dominant(m);
}

CsrMatrix make_circuit(i64 n, i64 target_nnz, Rng& rng) {
  CELLO_CHECK(n > 0 && target_nnz >= n);
  std::vector<Triplet> ts;
  ts.reserve(static_cast<size_t>(target_nnz) + n);
  for (i64 r = 0; r < n; ++r) ts.push_back({r, r, 2.0});
  // Circuit matrices have highly irregular connectivity: most nodes couple to
  // a couple of neighbours, a few hub nodes (rails) couple to many.
  const i64 off_target = std::max<i64>(0, target_nnz - n) / 2;  // pairs
  i64 made = 0;
  while (made < off_target) {
    i64 r;
    if (rng.uniform() < 0.05) {
      r = static_cast<i64>(rng.bounded(std::max<u64>(1, static_cast<u64>(n) / 100)));  // hub
    } else {
      r = static_cast<i64>(rng.bounded(static_cast<u64>(n)));
    }
    const i64 c = static_cast<i64>(rng.bounded(static_cast<u64>(n)));
    if (r == c) continue;
    ts.push_back({r, c, -0.5 * rng.uniform()});
    ++made;
  }
  symmetrize(ts);
  auto m = CsrMatrix::from_triplets(n, n, std::move(ts));
  return diagonally_dominant(m);
}

CsrMatrix make_powerlaw_graph(i64 n, i64 target_nnz, Rng& rng) {
  CELLO_CHECK(n > 0 && target_nnz >= n);
  std::vector<Triplet> ts;
  for (i64 r = 0; r < n; ++r) ts.push_back({r, r, 1.0});  // self loops (A + I)
  const i64 edges = std::max<i64>(0, (target_nnz - n)) / 2;
  // Preferential-attachment flavoured endpoints: sample with a squared bias
  // toward low ids, producing the heavy-tailed degree profile of citation
  // and PPI graphs.
  std::set<std::pair<i64, i64>> seen;
  i64 made = 0;
  while (made < edges) {
    const double u1 = rng.uniform();
    const i64 a = static_cast<i64>(u1 * u1 * static_cast<double>(n));
    const i64 b = static_cast<i64>(rng.bounded(static_cast<u64>(n)));
    if (a == b || a >= n) continue;
    if (!seen.insert({std::min(a, b), std::max(a, b)}).second) continue;
    ts.push_back({a, b, 1.0});
    ts.push_back({b, a, 1.0});
    ++made;
  }
  // Row-normalize (random-walk normalization used by GCN pipelines).
  const auto m = CsrMatrix::from_triplets(n, n, std::move(ts));
  std::vector<double> norm(m.values().begin(), m.values().end());
  for (i64 r = 0; r < n; ++r) {
    const double deg = static_cast<double>(m.row_nnz(r));
    for (i64 k = m.row_ptr()[r]; k < m.row_ptr()[r + 1]; ++k) norm[k] /= deg;
  }
  return CsrMatrix::from_rows(n, n, {m.row_ptr().begin(), m.row_ptr().end()},
                              {m.col_idx().begin(), m.col_idx().end()}, std::move(norm));
}

CsrMatrix diagonally_dominant(const CsrMatrix& a, double margin) {
  std::vector<i64> row_ptr(static_cast<size_t>(a.rows()) + 1, 0);
  std::vector<i64> col_idx;
  std::vector<double> values;
  col_idx.reserve(static_cast<size_t>(a.nnz() + a.rows()));
  values.reserve(static_cast<size_t>(a.nnz() + a.rows()));
  const auto push = [&](i64 c, double v) {
    col_idx.push_back(c);
    values.push_back(v);
  };
  for (i64 r = 0; r < a.rows(); ++r) {
    const i64 end = a.row_ptr()[r + 1];
    double rowsum = 0.0;
    for (i64 k = a.row_ptr()[r]; k < end; ++k)
      if (a.col_idx()[k] != r) rowsum += std::abs(a.values()[k]);
    // The row's off-diagonal entries, with the lifted diagonal (replacing
    // any stored one) at its sorted position.
    i64 k = a.row_ptr()[r];
    for (; k < end && a.col_idx()[k] < r; ++k) push(a.col_idx()[k], a.values()[k]);
    push(r, rowsum + margin);
    for (; k < end; ++k)
      if (a.col_idx()[k] != r) push(a.col_idx()[k], a.values()[k]);
    row_ptr[r + 1] = static_cast<i64>(col_idx.size());
  }
  return CsrMatrix::from_rows(a.rows(), a.cols(), std::move(row_ptr), std::move(col_idx),
                              std::move(values));
}

}  // namespace cello::sparse
