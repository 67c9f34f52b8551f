#pragma once

/**
 * @file
 * Dense matrix/vector types for the Markov-chain solvers.
 *
 * The chains in this library are modest (hundreds to a few thousand
 * states), so a straightforward row-major dense matrix with LU-based
 * solves is sufficient and keeps the numerics auditable.
 */

#include <cstddef>
#include <initializer_list>
#include <string>
#include <vector>

namespace rsin {
namespace la {

using Vector = std::vector<double>;

/** Row-major dense matrix of doubles. */
class Matrix
{
  public:
    Matrix() = default;

    /** rows x cols matrix filled with @p fill. */
    Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

    /** Build from nested initializer lists; all rows must match. */
    Matrix(std::initializer_list<std::initializer_list<double>> init);

    /** n x n identity. */
    static Matrix identity(std::size_t n);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    bool square() const { return rows_ == cols_; }

    double &operator()(std::size_t r, std::size_t c);
    double operator()(std::size_t r, std::size_t c) const;

    /** Raw row-major storage; leading dimension is cols(). */
    double *data() { return data_.data(); }
    const double *data() const { return data_.data(); }

    Matrix operator+(const Matrix &other) const;
    Matrix operator-(const Matrix &other) const;
    Matrix operator*(const Matrix &other) const;
    Matrix operator*(double scalar) const;
    Vector operator*(const Vector &v) const;

    Matrix transpose() const;

    /** Max-absolute-entry norm. */
    double maxNorm() const;

    /** Human-readable rendering (debugging/test failure messages). */
    std::string str(int precision = 6) const;

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

/** x^T A as a vector (row GAXPY); x must have a.rows() entries. */
Vector leftMultiply(const Vector &x, const Matrix &a);

/**
 * out = alpha * a * b, or out += alpha * a * b with @p accumulate.
 * @p out must already have shape a.rows() x b.cols() and may not alias
 * either operand.  Lets iterative solvers reuse product storage
 * instead of allocating a fresh Matrix per step.
 */
void multiplyInto(double alpha, const Matrix &a, const Matrix &b,
                  Matrix &out, bool accumulate = false);

/** Euclidean norm of a vector. */
double norm2(const Vector &v);

/** Max-absolute-entry norm of a vector. */
double normInf(const Vector &v);

/** Dot product; sizes must match. */
double dot(const Vector &a, const Vector &b);

/** a - b elementwise; sizes must match. */
Vector subtract(const Vector &a, const Vector &b);

/**
 * LU factorization with partial pivoting, kept so multiple right-hand
 * sides can be solved against the same matrix.
 */
class LuFactors
{
  public:
    /** Factor @p a; throws FatalError if (numerically) singular. */
    explicit LuFactors(const Matrix &a);

    /** Solve A x = b for one right-hand side. */
    Vector solve(const Vector &b) const;

    /**
     * Solve A^T x = b against the same factorization (no transposed
     * copy, no second factorization).
     */
    Vector solveTransposed(const Vector &b) const;

    /** Solve A X = B for a full right-hand-side matrix. */
    Matrix solveMatrix(const Matrix &b) const;

    /**
     * Solve Y A = X (left division by A from the right); X is
     * nrows x n.  The workhorse of the QBD solvers, where every step
     * right-divides a block row by a level matrix.
     */
    Matrix rightSolve(const Matrix &x) const;

    std::size_t size() const { return lu_.rows(); }

  private:
    Matrix lu_;
    std::vector<std::size_t> perm_;
};

/** One-shot solve of A x = b. */
Vector solve(const Matrix &a, const Vector &b);

/**
 * Solve x A = 0 with sum(x) = 1 (stationary distribution of a CTMC
 * generator A).  Implemented by replacing one balance equation with the
 * normalization constraint and LU-solving the transpose system.
 */
Vector stationaryFromGenerator(const Matrix &q);

} // namespace la
} // namespace rsin
