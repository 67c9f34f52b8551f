#pragma once

/**
 * @file
 * Low-level dense kernels behind the Matrix API: a cache-blocked,
 * register-tiled GEMM, row-vector GAXPY, and the triangular multi-RHS
 * sweeps the blocked LU solves are built from.
 *
 * Everything works on raw row-major storage with explicit leading
 * dimensions, so the Matrix class stays a thin owner and the solvers
 * in markov/ can run on sub-blocks without copying.  All kernels are
 * sequential and allocation-free.
 */

#include <cstddef>

namespace rsin {
namespace la {
namespace kernels {

/**
 * C = alpha * A * B (or C += with @p accumulate), row-major.
 * A is m x k with leading dimension @p lda, B is k x n / @p ldb,
 * C is m x n / @p ldc.  Cache-blocked over (k, j) with a 4-row
 * register micro-kernel; safe for any aliasing-free operands.
 */
void gemm(std::size_t m, std::size_t n, std::size_t k, double alpha,
          const double *a, std::size_t lda, const double *b,
          std::size_t ldb, double *c, std::size_t ldc, bool accumulate);

/** y = x^T A (row GAXPY): A is m x n / @p lda, x has m, y has n. */
void gaxpyRow(std::size_t m, std::size_t n, const double *a,
              std::size_t lda, const double *x, double *y);

/** y = A x (column GAXPY): A is m x n / @p lda, x has n, y has m. */
void gaxpyCol(std::size_t m, std::size_t n, const double *a,
              std::size_t lda, const double *x, double *y);

/**
 * In-place blocked LU with partial pivoting on an n x n row-major
 * matrix: on return @p a holds the unit-lower / upper factors and
 * @p perm the row permutation (perm[i] = original row now in row i).
 * Returns false if the matrix is numerically singular (pivot magnitude
 * below @p tiny).
 */
bool factorLu(std::size_t n, double *a, std::size_t lda,
              std::size_t *perm, double tiny);

/**
 * Solve L U X = B for @p nrhs right-hand-side columns, X row-major
 * n x nrhs, given factors from factorLu (rows of B already permuted).
 * Row-streaming forward + backward substitution.
 */
void solveLuRows(std::size_t n, const double *lu, std::size_t lda,
                 double *x, std::size_t nrhs, std::size_t ldx);

/**
 * Solve Y L U = Z in place for @p nrows row vectors (Y row-major
 * nrows x n): column-oriented sweeps Z U^{-1} then (.) L^{-1}, both
 * expressed as row-axpy updates so access stays row-major friendly.
 */
void solveLuCols(std::size_t n, const double *lu, std::size_t lda,
                 double *y, std::size_t nrows, std::size_t ldy);

} // namespace kernels
} // namespace la
} // namespace rsin
