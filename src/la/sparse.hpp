#pragma once

/**
 * @file
 * Sparse engine for chains whose blocks outgrow the dense path.
 *
 * The LD-QBD generators of the crossbar/Omega chains have level blocks
 * with hundreds to thousands of phases but only a handful of
 * transitions per state, so the stationary systems are large and very
 * sparse.  This file supplies the minimal kit the iterative solver
 * needs:
 *
 *  - CsrMatrix: compressed-sparse-row storage built from triplets
 *    (duplicates summed), with a y = A x kernel;
 *  - gmres(): restarted GMRES with optional right preconditioning over
 *    an abstract operator, so callers can compose the matrix with any
 *    preconditioner without materializing products;
 *  - a block-diagonal preconditioner over CompressedLu factors (the
 *    dense blocked LU kept as its nonzeros), which the QBD solver uses
 *    with one block per chain level.
 *
 * Everything is double end-to-end (rsin-lint R3) and container choice
 * is deterministic (R2: no unordered containers).
 */

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "la/matrix.hpp"

namespace rsin {
namespace la {

/** One (row, col, value) entry of a matrix under assembly. */
struct Triplet
{
    std::size_t row = 0;
    std::size_t col = 0;
    double value = 0.0;
};

using Triplets = std::vector<Triplet>;

/** Immutable compressed-sparse-row matrix of doubles. */
class CsrMatrix
{
  public:
    CsrMatrix() = default;

    /**
     * Assemble from triplets: entries are grouped by (row, col) with
     * duplicates summed (exact zeros produced by cancellation are
     * kept, so the sparsity pattern is a function of the input alone).
     * Column indices within each row end up sorted.
     */
    static CsrMatrix fromTriplets(std::size_t rows, std::size_t cols,
                                  const Triplets &entries);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    std::size_t nnz() const { return values_.size(); }

    /** y = A x; x has cols() entries, y rows() (no aliasing). */
    void multiply(const double *x, double *y) const;
    Vector operator*(const Vector &x) const;

    /** Dense rendering, for oracle tests and small-system debugging. */
    Matrix dense() const;

    const std::vector<std::size_t> &rowPtr() const { return rowPtr_; }
    const std::vector<std::size_t> &colIdx() const { return colIdx_; }
    const std::vector<double> &values() const { return values_; }

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<std::size_t> rowPtr_; ///< rows()+1 offsets into colIdx_
    std::vector<std::size_t> colIdx_;
    std::vector<double> values_;
};

/**
 * A square linear operator y = op(x), the common currency of the
 * iterative solvers: a CsrMatrix, a preconditioner solve, or any
 * composition of the two fits without copies.
 */
struct LinearOperator
{
    std::size_t n = 0;
    std::function<void(const double *x, double *y)> apply;
};

/** Matrix view of @p a as a LinearOperator (y = A x). */
LinearOperator asOperator(const CsrMatrix &a);

/**
 * LU factors of a dense square block, kept as their nonzeros only.
 *
 * The block is factored by the same blocked partial-pivoting LU as
 * la::LuFactors and then compressed: each row keeps its strictly
 * lower (unit-L) and strictly upper (U) nonzeros in ascending column
 * order, plus the reciprocal of its pivot.  The triangular sweeps skip
 * exactly the zero multipliers the dense sweeps skip and visit the
 * rest in the same order, so every right-hand side is solved bit for
 * bit as LuFactors::solve solves it.  The level blocks of the
 * crossbar/Omega chains factor only 20-25% dense, so the sweeps do a
 * fifth to a quarter of the dense sweeps' work.
 */
class CompressedLu
{
  public:
    /** Factor @p a (consumed); throws FatalError if singular. */
    explicit CompressedLu(Matrix a);

    std::size_t size() const { return perm_.size(); }
    /** Stored off-diagonal nonzeros of L and U together. */
    std::size_t nnz() const { return values_.size(); }

    /**
     * Solve A X = B in place for @p nrhs right-hand sides: @p x holds
     * B row-major (size() x nrhs), its rows already permuted (row i
     * holds B's row perm()[i]), and receives X.  Each column comes out
     * bit for bit as LuFactors::solve returns it.
     */
    void solveRows(double *x, std::size_t nrhs) const;

    /** Row permutation: row i of the factors is original row perm()[i]. */
    const std::vector<std::size_t> &perm() const { return perm_; }

  private:
    std::vector<std::size_t> perm_;
    /** Row i's L entries are [lowerBegin_[i], upperBegin_[i]), its U
     *  entries [upperBegin_[i], lowerBegin_[i + 1]). */
    std::vector<std::size_t> lowerBegin_;
    std::vector<std::size_t> upperBegin_;
    std::vector<std::uint32_t> cols_; ///< n x n fits in memory, so n < 2^32
    std::vector<double> values_;
    std::vector<double> invPivot_; ///< 1 / U(i, i)
};

/**
 * Block-diagonal preconditioner y = M^{-1} x over pre-factored blocks:
 * block b covers rows [starts[b], starts[b] + blocks[b]->size()) and
 * is solved against *blocks[b]; rows no block covers pass through.
 * Blocks that point at the same factorization form one group and are
 * solved together as a single multi-right-hand-side sweep (the LD-QBD
 * solver shares the deepest level's factorization across the whole
 * truncated tail).  Each block's solution is bit-identical to
 * LuFactors::solve on its slice.  The operator keeps the pointers,
 * so the factors must outlive it.
 */
LinearOperator blockDiagonalPreconditioner(
    std::vector<const CompressedLu *> blocks,
    std::vector<std::size_t> starts, std::size_t n);

/** Knobs for gmres(). */
struct GmresOptions
{
    std::size_t restart = 40;        ///< Krylov dimension per cycle
    std::size_t maxIterations = 4000;///< total inner iterations
    double tolerance = 1e-12;        ///< relative residual target
};

/** Outcome of a gmres() run. */
struct GmresResult
{
    bool converged = false;
    std::size_t iterations = 0; ///< inner iterations consumed
    double residual = 0.0;      ///< final relative residual
};

/**
 * Restarted GMRES for A x = b with optional *right* preconditioner M:
 * solves A M^{-1} u = b and returns x = M^{-1} u, so the reported
 * residual is the true residual of the original system.  @p x carries
 * the initial guess in and the solution out.
 */
GmresResult gmres(const LinearOperator &a, const Vector &b, Vector &x,
                  const GmresOptions &opts = {},
                  const LinearOperator *right_precond = nullptr);

} // namespace la
} // namespace rsin
