#include "matrix.hpp"

#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "la/kernels.hpp"

namespace rsin {
namespace la {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill)
{
}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> init)
{
    rows_ = init.size();
    cols_ = rows_ ? init.begin()->size() : 0;
    data_.reserve(rows_ * cols_);
    for (const auto &row : init) {
        RSIN_REQUIRE(row.size() == cols_, "Matrix: ragged initializer");
        for (double v : row)
            data_.push_back(v);
    }
}

Matrix
Matrix::identity(std::size_t n)
{
    Matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i)
        m(i, i) = 1.0;
    return m;
}

double &
Matrix::operator()(std::size_t r, std::size_t c)
{
    RSIN_ASSERT(r < rows_ && c < cols_, "index (", r, ",", c, ") out of ",
                rows_, "x", cols_);
    return data_[r * cols_ + c];
}

double
Matrix::operator()(std::size_t r, std::size_t c) const
{
    RSIN_ASSERT(r < rows_ && c < cols_, "index (", r, ",", c, ") out of ",
                rows_, "x", cols_);
    return data_[r * cols_ + c];
}

Matrix
Matrix::operator+(const Matrix &other) const
{
    RSIN_REQUIRE(rows_ == other.rows_ && cols_ == other.cols_,
                 "matrix add: shape mismatch");
    Matrix out(rows_, cols_);
    for (std::size_t i = 0; i < data_.size(); ++i)
        out.data_[i] = data_[i] + other.data_[i];
    return out;
}

Matrix
Matrix::operator-(const Matrix &other) const
{
    RSIN_REQUIRE(rows_ == other.rows_ && cols_ == other.cols_,
                 "matrix subtract: shape mismatch");
    Matrix out(rows_, cols_);
    for (std::size_t i = 0; i < data_.size(); ++i)
        out.data_[i] = data_[i] - other.data_[i];
    return out;
}

Matrix
Matrix::operator*(const Matrix &other) const
{
    RSIN_REQUIRE(cols_ == other.rows_, "matrix multiply: shape mismatch");
    Matrix out(rows_, other.cols_);
    kernels::gemm(rows_, other.cols_, cols_, 1.0, data_.data(), cols_,
                  other.data_.data(), other.cols_, out.data_.data(),
                  out.cols_, false);
    return out;
}

Matrix
Matrix::operator*(double scalar) const
{
    Matrix out(rows_, cols_);
    for (std::size_t i = 0; i < data_.size(); ++i)
        out.data_[i] = data_[i] * scalar;
    return out;
}

Vector
Matrix::operator*(const Vector &v) const
{
    RSIN_REQUIRE(v.size() == cols_, "matrix-vector multiply: shape mismatch");
    Vector out(rows_);
    kernels::gaxpyCol(rows_, cols_, data_.data(), cols_, v.data(),
                      out.data());
    return out;
}

Matrix
Matrix::transpose() const
{
    Matrix out(cols_, rows_);
    for (std::size_t i = 0; i < rows_; ++i)
        for (std::size_t j = 0; j < cols_; ++j)
            out(j, i) = (*this)(i, j);
    return out;
}

double
Matrix::maxNorm() const
{
    double m = 0.0;
    for (double v : data_)
        m = std::max(m, std::fabs(v));
    return m;
}

std::string
Matrix::str(int precision) const
{
    std::ostringstream os;
    os.precision(precision);
    for (std::size_t i = 0; i < rows_; ++i) {
        os << "[ ";
        for (std::size_t j = 0; j < cols_; ++j)
            os << (*this)(i, j) << " ";
        os << "]\n";
    }
    return os.str();
}

Vector
leftMultiply(const Vector &x, const Matrix &a)
{
    RSIN_REQUIRE(x.size() == a.rows(),
                 "leftMultiply: vector/matrix shape mismatch");
    Vector out(a.cols());
    kernels::gaxpyRow(a.rows(), a.cols(), a.data(), a.cols(), x.data(),
                      out.data());
    return out;
}

void
multiplyInto(double alpha, const Matrix &a, const Matrix &b, Matrix &out,
             bool accumulate)
{
    RSIN_REQUIRE(a.cols() == b.rows() && out.rows() == a.rows() &&
                     out.cols() == b.cols(),
                 "multiplyInto: shape mismatch");
    RSIN_REQUIRE(out.data() != a.data() && out.data() != b.data(),
                 "multiplyInto: output aliases an operand");
    kernels::gemm(a.rows(), b.cols(), a.cols(), alpha, a.data(), a.cols(),
                  b.data(), b.cols(), out.data(), out.cols(), accumulate);
}

double
norm2(const Vector &v)
{
    double acc = 0.0;
    for (double x : v)
        acc += x * x;
    return std::sqrt(acc);
}

double
normInf(const Vector &v)
{
    double m = 0.0;
    for (double x : v)
        m = std::max(m, std::fabs(x));
    return m;
}

double
dot(const Vector &a, const Vector &b)
{
    RSIN_REQUIRE(a.size() == b.size(), "dot: size mismatch");
    double acc = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        acc += a[i] * b[i];
    return acc;
}

Vector
subtract(const Vector &a, const Vector &b)
{
    RSIN_REQUIRE(a.size() == b.size(), "subtract: size mismatch");
    Vector out(a.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        out[i] = a[i] - b[i];
    return out;
}

LuFactors::LuFactors(const Matrix &a)
    : lu_(a), perm_(a.rows())
{
    RSIN_REQUIRE(a.square(), "LU: matrix must be square");
    const bool regular = kernels::factorLu(lu_.rows(), lu_.data(),
                                           lu_.cols(), perm_.data(), 1e-300);
    RSIN_REQUIRE(regular, "LU: matrix is singular");
}

Vector
LuFactors::solve(const Vector &b) const
{
    const std::size_t n = lu_.rows();
    RSIN_REQUIRE(b.size() == n, "LU solve: rhs size mismatch");
    Vector x(n);
    for (std::size_t i = 0; i < n; ++i)
        x[i] = b[perm_[i]];
    kernels::solveLuRows(n, lu_.data(), lu_.cols(), x.data(), 1, 1);
    return x;
}

Vector
LuFactors::solveTransposed(const Vector &b) const
{
    // A = P^T L U, so A^T x = b unwinds as U^T z = b (forward),
    // L^T y = z (backward), x[perm[i]] = y[i].
    const std::size_t n = lu_.rows();
    RSIN_REQUIRE(b.size() == n, "LU solveTransposed: rhs size mismatch");
    Vector z = b;
    for (std::size_t i = 0; i < n; ++i) {
        const double zi = z[i] / lu_(i, i);
        z[i] = zi;
        if (zi == 0.0)
            continue;
        for (std::size_t c = i + 1; c < n; ++c)
            z[c] -= lu_(i, c) * zi;
    }
    for (std::size_t ii = n; ii > 0; --ii) {
        const std::size_t i = ii - 1;
        const double yi = z[i];
        if (yi == 0.0)
            continue;
        for (std::size_t c = 0; c < i; ++c)
            z[c] -= lu_(i, c) * yi;
    }
    Vector x(n);
    for (std::size_t i = 0; i < n; ++i)
        x[perm_[i]] = z[i];
    return x;
}

Matrix
LuFactors::solveMatrix(const Matrix &b) const
{
    const std::size_t n = lu_.rows();
    RSIN_REQUIRE(b.rows() == n, "LU solveMatrix: rhs shape mismatch");
    Matrix x(n, b.cols());
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < b.cols(); ++j)
            x(i, j) = b(perm_[i], j);
    kernels::solveLuRows(n, lu_.data(), lu_.cols(), x.data(), x.cols(),
                         x.cols());
    return x;
}

Matrix
LuFactors::rightSolve(const Matrix &x) const
{
    // Y A = X with A = P^T L U: solve W L U = X by the two
    // column-oriented sweeps, then undo the permutation columnwise
    // (Y = W P).
    const std::size_t n = lu_.rows();
    RSIN_REQUIRE(x.cols() == n, "LU rightSolve: lhs shape mismatch");
    Matrix w = x;
    kernels::solveLuCols(n, lu_.data(), lu_.cols(), w.data(), w.rows(),
                         w.cols());
    Matrix y(x.rows(), n);
    for (std::size_t r = 0; r < w.rows(); ++r)
        for (std::size_t k = 0; k < n; ++k)
            y(r, perm_[k]) = w(r, k);
    return y;
}

Vector
solve(const Matrix &a, const Vector &b)
{
    return LuFactors(a).solve(b);
}

Vector
stationaryFromGenerator(const Matrix &q)
{
    RSIN_REQUIRE(q.square(), "stationary: generator must be square");
    const std::size_t n = q.rows();
    RSIN_REQUIRE(n > 0, "stationary: empty generator");
    // Solve Q^T pi = 0 with the last equation replaced by sum(pi) = 1:
    // replace Q's last *column* by ones and solve the transposed
    // system against one factorization -- no transposed copy.
    Matrix a = q;
    for (std::size_t i = 0; i < n; ++i)
        a(i, n - 1) = 1.0;
    Vector b(n, 0.0);
    b[n - 1] = 1.0;
    Vector pi = LuFactors(a).solveTransposed(b);
    // Clamp tiny negative round-off and renormalize.
    double sum = 0.0;
    for (auto &p : pi) {
        if (p < 0.0 && p > -1e-9)
            p = 0.0;
        sum += p;
    }
    RSIN_REQUIRE(sum > 0.0, "stationary: degenerate solution");
    for (auto &p : pi)
        p /= sum;
    return pi;
}

} // namespace la
} // namespace rsin
