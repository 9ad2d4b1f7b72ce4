// Tests for CSR assembly: the linear-time CsrMatrix::from_triplets against
// the sort-based assembly it replaced (kept here as the oracle), the
// validating CsrMatrix::from_rows, diagonally_dominant's in-place diagonal,
// pinned fingerprints of the Table VI presets, and the WorkloadRegistry's
// one-matrix-per-source sharing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sim/workload_registry.hpp"
#include "sparse/csr.hpp"
#include "sparse/datasets.hpp"
#include "sparse/generators.hpp"

namespace {

using namespace cello;
using sparse::CsrMatrix;
using sparse::Triplet;

/// CSR arrays, as the oracle produces them.
struct Arrays {
  std::vector<i64> row_ptr;
  std::vector<i64> col_idx;
  std::vector<double> values;
};

/// The comparison-sort assembly from_triplets used before it became linear:
/// sort by (row, col), then sum each run of equal coordinates.
Arrays sort_based_assembly(i64 rows, std::vector<Triplet> entries) {
  std::sort(entries.begin(), entries.end(), [](const Triplet& a, const Triplet& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  });
  Arrays out;
  out.row_ptr.assign(static_cast<size_t>(rows) + 1, 0);
  for (size_t i = 0; i < entries.size();) {
    size_t j = i;
    double sum = 0.0;
    while (j < entries.size() && entries[j].row == entries[i].row &&
           entries[j].col == entries[i].col) {
      sum += entries[j].value;
      ++j;
    }
    out.col_idx.push_back(entries[i].col);
    out.values.push_back(sum);
    ++out.row_ptr[entries[i].row + 1];
    i = j;
  }
  for (i64 r = 0; r < rows; ++r) out.row_ptr[r + 1] += out.row_ptr[r];
  return out;
}

template <class T>
std::vector<T> to_vector(std::span<const T> s) {
  return {s.begin(), s.end()};
}

/// FNV-1a over the 8-byte patterns of `xs`, continuing from `h`.
template <class T>
u64 fnv(u64 h, std::span<const T> xs) {
  static_assert(sizeof(T) == 8);
  for (const T& x : xs) {
    u64 bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

constexpr u64 kFnvBasis = 0xcbf29ce484222325ull;

u64 structure_fingerprint(const CsrMatrix& m) {
  return fnv(fnv(kFnvBasis, m.row_ptr()), m.col_idx());
}

u64 value_fingerprint(const CsrMatrix& m) { return fnv(kFnvBasis, m.values()); }

TEST(CsrAssembly, MatchesTheSortBasedAssembly) {
  Rng rng(20261017);
  for (int trial = 0; trial < 300; ++trial) {
    const i64 rows = static_cast<i64>(rng.bounded(40));
    const i64 cols = 1 + static_cast<i64>(rng.bounded(40));
    // Some trials leave most rows empty, some crowd a few rows.
    const i64 live_rows = rows == 0 ? 0 : 1 + static_cast<i64>(rng.bounded(rows));
    const size_t count = rows == 0 ? 0 : rng.bounded(6 * static_cast<u64>(rows) + 1);
    const bool allow_duplicates = trial % 2 == 0;
    std::vector<Triplet> ts;
    std::map<std::pair<i64, i64>, double> expected;  // input-order sums
    while (ts.size() < count) {
      const Triplet t{static_cast<i64>(rng.bounded(static_cast<u64>(live_rows))),
                      static_cast<i64>(rng.bounded(static_cast<u64>(cols))),
                      rng.uniform() - 0.5};
      const auto [it, fresh] = expected.try_emplace({t.row, t.col}, 0.0);
      if (!fresh && !allow_duplicates) {
        if (expected.size() == static_cast<size_t>(live_rows * cols)) break;  // full
        continue;
      }
      it->second += t.value;
      ts.push_back(t);
    }

    const Arrays want = sort_based_assembly(rows, ts);
    const CsrMatrix got = CsrMatrix::from_triplets(rows, cols, ts);
    ASSERT_EQ(to_vector(got.row_ptr()), want.row_ptr) << "trial " << trial;
    ASSERT_EQ(to_vector(got.col_idx()), want.col_idx) << "trial " << trial;
    if (!allow_duplicates) {
      EXPECT_EQ(to_vector(got.values()), want.values) << "trial " << trial;
    }
    // Duplicates are summed in input order, bit for bit.
    for (i64 r = 0; r < rows; ++r)
      for (i64 k = got.row_ptr()[r]; k < got.row_ptr()[r + 1]; ++k)
        ASSERT_EQ(got.values()[k], expected.at({r, got.col_idx()[k]}))
            << "trial " << trial << " (" << r << ", " << got.col_idx()[k] << ")";
  }
}

TEST(CsrAssembly, DenseRowMatchesTheSortBasedAssembly) {
  // Long enough to leave the insertion-sort path; duplicates throughout.
  Rng rng(3);
  std::vector<Triplet> ts;
  std::map<std::pair<i64, i64>, double> expected;
  for (int i = 0; i < 20000; ++i) {
    const Triplet t{i % 5 == 0 ? 2 : 1, static_cast<i64>(rng.bounded(5000)),
                    rng.uniform() - 0.5};
    expected[{t.row, t.col}] += t.value;
    ts.push_back(t);
  }
  const Arrays want = sort_based_assembly(3, ts);
  const CsrMatrix got = CsrMatrix::from_triplets(3, 5000, ts);
  ASSERT_EQ(to_vector(got.row_ptr()), want.row_ptr);
  ASSERT_EQ(to_vector(got.col_idx()), want.col_idx);
  for (i64 r = 0; r < 3; ++r)
    for (i64 k = got.row_ptr()[r]; k < got.row_ptr()[r + 1]; ++k)
      ASSERT_EQ(got.values()[k], expected.at({r, got.col_idx()[k]}));
}

TEST(CsrAssembly, SumsDuplicatesInInputOrder) {
  // (1e16 + 1) + 1 loses both ones; 1 + 1 + 1e16 keeps them.
  const auto a = CsrMatrix::from_triplets(1, 2, {{0, 1, 1e16}, {0, 0, 3.0}, {0, 1, 1.0},
                                                 {0, 1, 1.0}});
  const auto b = CsrMatrix::from_triplets(1, 2, {{0, 1, 1.0}, {0, 1, 1.0}, {0, 1, 1e16}});
  EXPECT_EQ(a.values()[1], (1e16 + 1.0) + 1.0);
  EXPECT_EQ(b.values()[0], (1.0 + 1.0) + 1e16);
  EXPECT_NE(a.values()[1], b.values()[0]);
}

TEST(CsrAssembly, FromRowsAdoptsValidArraysAndRejectsBrokenOnes) {
  const auto m = CsrMatrix::from_rows(2, 3, {0, 2, 3}, {0, 2, 1}, {1.0, 2.0, 3.0});
  EXPECT_EQ(m.nnz(), 3);
  EXPECT_EQ(m.row_nnz(1), 1);
  EXPECT_EQ(CsrMatrix::from_rows(0, 0, {0}, {}, {}).rows(), 0);

  EXPECT_THROW(CsrMatrix::from_rows(2, 3, {0, 2}, {0, 2}, {1.0, 2.0}), Error);  // short row_ptr
  EXPECT_THROW(CsrMatrix::from_rows(2, 3, {1, 2, 3}, {0, 2, 1}, {1.0, 2.0, 3.0}), Error);
  EXPECT_THROW(CsrMatrix::from_rows(2, 3, {0, 2, 3}, {0, 2, 1}, {1.0, 2.0}), Error);
  EXPECT_THROW(CsrMatrix::from_rows(2, 3, {0, 2, 3}, {2, 0, 1}, {1.0, 2.0, 3.0}), Error);
  EXPECT_THROW(CsrMatrix::from_rows(2, 3, {0, 2, 3}, {0, 0, 1}, {1.0, 2.0, 3.0}), Error);
  EXPECT_THROW(CsrMatrix::from_rows(2, 3, {0, 2, 3}, {0, 3, 1}, {1.0, 2.0, 3.0}), Error);
  // A row_ptr that overshoots and comes back down is caught before any row
  // is read through it.
  EXPECT_THROW(CsrMatrix::from_rows(2, 3, {0, 9, 3}, {0, 1, 2}, {1.0, 2.0, 3.0}), Error);
  EXPECT_THROW(CsrMatrix::from_rows(-1, 3, {}, {}, {}), Error);
}

TEST(CsrAssembly, DiagonallyDominantMatchesItsTripletForm) {
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const i64 n = 1 + static_cast<i64>(rng.bounded(30));
    std::vector<Triplet> ts;
    for (u64 i = rng.bounded(5 * static_cast<u64>(n)); i > 0; --i)
      ts.push_back({static_cast<i64>(rng.bounded(static_cast<u64>(n))),
                    static_cast<i64>(rng.bounded(static_cast<u64>(n))), rng.uniform() - 0.5});
    const auto a = CsrMatrix::from_triplets(n, n, ts);

    // The definition: off-diagonal entries kept, every diagonal replaced by
    // the row's off-diagonal magnitude plus the margin.
    std::vector<Triplet> lifted;
    std::vector<double> rowsum(n, 0.0);
    for (i64 r = 0; r < n; ++r)
      for (i64 k = a.row_ptr()[r]; k < a.row_ptr()[r + 1]; ++k)
        if (a.col_idx()[k] != r) {
          rowsum[r] += std::abs(a.values()[k]);
          lifted.push_back({r, a.col_idx()[k], a.values()[k]});
        }
    for (i64 r = 0; r < n; ++r) lifted.push_back({r, r, rowsum[r] + 2.5});
    const auto want = CsrMatrix::from_triplets(n, n, lifted);

    const auto got = sparse::diagonally_dominant(a, 2.5);
    ASSERT_EQ(to_vector(got.row_ptr()), to_vector(want.row_ptr())) << "trial " << trial;
    ASSERT_EQ(to_vector(got.col_idx()), to_vector(want.col_idx())) << "trial " << trial;
    ASSERT_EQ(to_vector(got.values()), to_vector(want.values())) << "trial " << trial;
  }
}

struct Pinned {
  const char* name;
  i64 nnz;
  u64 structure;
  u64 values;
};

TEST(CsrAssembly, TableViPresetsKeepTheirFingerprints) {
  // Recorded from the sort-based assembly: the presets' structure and value
  // bits must not move.
  const Pinned pinned[] = {
      {"fv1", 85258, 0x67ad0d3caa7e36beull, 0xe0f36d3b64dae0d5ull},
      {"shallow_water1", 327678, 0xd910f405297db45aull, 0x971d54f320f6041dull},
      {"G2_circuit", 726672, 0x6cb84279a1b37e7full, 0xf2ff4ad715d04629ull},
      {"nasa4704", 104720, 0xb39f8e4a7bd39beaull, 0x3d0bd02f4971b9a6ull},
      {"cora", 9464, 0x121b7f68316ff7ffull, 0x8cdcdd1506155010ull},
      {"protein", 14456, 0x0ab279f4a87bf9ffull, 0xd466b7830377ad4cull},
  };
  ASSERT_EQ(std::size(pinned), sparse::table6_datasets().size());
  for (const auto& p : pinned) {
    const CsrMatrix m = sparse::instantiate(sparse::dataset_by_name(p.name));
    EXPECT_EQ(m.nnz(), p.nnz) << p.name;
    EXPECT_EQ(structure_fingerprint(m), p.structure) << p.name;
    EXPECT_EQ(value_fingerprint(m), p.values) << p.name;
  }
}

TEST(CsrAssembly, RegistryBuildsEachMatrixSourceOnce) {
  const sim::WorkloadRegistry registry;
  const auto gnn = registry.resolve("gnn:cora");
  const auto sddmm = registry.resolve("sddmm:dataset=cora,heads=2");
  ASSERT_NE(gnn.matrix, nullptr);
  EXPECT_EQ(gnn.matrix, sddmm.matrix);
  EXPECT_NE(gnn.dag, sddmm.dag);
  // A kind's default dataset is the same source as naming it.
  EXPECT_EQ(registry.resolve("cg:iters=2").matrix, registry.resolve("spmv:shallow_water1").matrix);
  // gen= sources match on their resolved parameters (nnz defaults to 8*m,
  // seed to 1), and differ when any of them does.
  const auto gen = registry.resolve("cg:gen=fem,m=512,nnz=4096");
  EXPECT_EQ(gen.matrix, registry.resolve("spmv:gen=fem,m=512,seed=1").matrix);
  EXPECT_NE(gen.matrix, registry.resolve("spmv:gen=fem,m=512,seed=2").matrix);
  EXPECT_NE(gen.matrix, registry.resolve("spmv:gen=circuit,m=512").matrix);

  // clear_cache() drops the matrices too: the next resolve rebuilds an equal
  // matrix, and outstanding handles stay valid.
  registry.clear_cache();
  const auto again = registry.resolve("sddmm:dataset=cora,heads=2");
  EXPECT_NE(again.matrix, gnn.matrix);
  EXPECT_EQ(structure_fingerprint(*again.matrix), structure_fingerprint(*gnn.matrix));
  EXPECT_EQ(value_fingerprint(*again.matrix), value_fingerprint(*gnn.matrix));
  EXPECT_EQ(registry.resolve("gnn:cora").matrix, again.matrix);
}

TEST(CsrAssembly, ConcurrentResolvesShareOneMatrix) {
  const sim::WorkloadRegistry registry;
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const CsrMatrix>> seen(kThreads);
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t)
    pool.emplace_back([&, t] {
      seen[t] = registry.resolve(t % 2 == 0 ? "gnn:protein" : "sddmm:protein").matrix;
    });
  for (auto& th : pool) th.join();
  for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]) << "thread " << t;
}

}  // namespace
