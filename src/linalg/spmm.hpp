// Sparse (CSR) × dense kernels — the line-1 SpMM of CG and the A·X of GCN.
#pragma once

#include "linalg/dense.hpp"
#include "sparse/csr.hpp"

namespace cello::linalg {

/// C = A * B where A is M×K CSR and B is K×N dense.
void spmm(const sparse::CsrMatrix& a, const DenseMatrix& b, DenseMatrix& c);

}  // namespace cello::linalg
