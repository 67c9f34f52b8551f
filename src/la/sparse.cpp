#include "sparse.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/error.hpp"
#include "la/kernels.hpp"

namespace rsin {
namespace la {

CsrMatrix
CsrMatrix::fromTriplets(std::size_t rows, std::size_t cols,
                        const Triplets &entries)
{
    CsrMatrix out;
    out.rows_ = rows;
    out.cols_ = cols;

    // Sort a copy by (row, col); stable order makes duplicate summing
    // deterministic regardless of emission order.
    Triplets sorted = entries;
    std::sort(sorted.begin(), sorted.end(),
              [](const Triplet &a, const Triplet &b) {
                  return a.row != b.row ? a.row < b.row : a.col < b.col;
              });

    out.rowPtr_.assign(rows + 1, 0);
    out.colIdx_.reserve(sorted.size());
    out.values_.reserve(sorted.size());
    for (std::size_t i = 0; i < sorted.size();) {
        const Triplet &head = sorted[i];
        RSIN_REQUIRE(head.row < rows && head.col < cols,
                     "CsrMatrix::fromTriplets: entry out of range");
        double sum = 0.0;
        std::size_t j = i;
        for (; j < sorted.size() && sorted[j].row == head.row &&
               sorted[j].col == head.col;
             ++j)
            sum += sorted[j].value;
        out.colIdx_.push_back(head.col);
        out.values_.push_back(sum);
        out.rowPtr_[head.row + 1] = out.colIdx_.size();
        i = j;
    }
    // Rows with no entries inherit the previous offset.
    for (std::size_t r = 1; r <= rows; ++r)
        out.rowPtr_[r] = std::max(out.rowPtr_[r], out.rowPtr_[r - 1]);
    return out;
}

void
CsrMatrix::multiply(const double *x, double *y) const
{
    for (std::size_t r = 0; r < rows_; ++r) {
        double acc = 0.0;
        for (std::size_t k = rowPtr_[r]; k < rowPtr_[r + 1]; ++k)
            acc += values_[k] * x[colIdx_[k]];
        y[r] = acc;
    }
}

Vector
CsrMatrix::operator*(const Vector &x) const
{
    RSIN_REQUIRE(x.size() == cols_, "CsrMatrix: size mismatch in A*x");
    Vector y(rows_, 0.0);
    multiply(x.data(), y.data());
    return y;
}

Matrix
CsrMatrix::dense() const
{
    Matrix out(rows_, cols_, 0.0);
    for (std::size_t r = 0; r < rows_; ++r)
        for (std::size_t k = rowPtr_[r]; k < rowPtr_[r + 1]; ++k)
            out(r, colIdx_[k]) += values_[k];
    return out;
}

LinearOperator
asOperator(const CsrMatrix &a)
{
    RSIN_REQUIRE(a.rows() == a.cols(), "asOperator: matrix not square");
    LinearOperator op;
    op.n = a.rows();
    op.apply = [&a](const double *x, double *y) { a.multiply(x, y); };
    return op;
}

namespace {

/**
 * xi -= vals[k] * (row cols[k] of x) for k in [begin, end), x
 * row-major with @p nrhs columns.  Four rows are folded into each pass
 * over xi, which cuts the loads and stores of xi to a quarter; every
 * entry still sees its subtractions one at a time in ascending k, so
 * the result is bit-identical to one pass per k.
 */
void
subtractRows(double *xi, const double *x, std::size_t nrhs,
             const std::uint32_t *cols, const double *vals,
             std::size_t begin, std::size_t end)
{
    std::size_t k = begin;
    for (; k + 4 <= end; k += 4) {
        const double f0 = vals[k], f1 = vals[k + 1], f2 = vals[k + 2],
                     f3 = vals[k + 3];
        const double *x0 = x + cols[k] * nrhs;
        const double *x1 = x + cols[k + 1] * nrhs;
        const double *x2 = x + cols[k + 2] * nrhs;
        const double *x3 = x + cols[k + 3] * nrhs;
        for (std::size_t c = 0; c < nrhs; ++c)
            xi[c] = (((xi[c] - f0 * x0[c]) - f1 * x1[c]) - f2 * x2[c]) -
                    f3 * x3[c];
    }
    for (; k < end; ++k) {
        const double factor = vals[k];
        const double *xj = x + cols[k] * nrhs;
        for (std::size_t c = 0; c < nrhs; ++c)
            xi[c] -= factor * xj[c];
    }
}

} // namespace

CompressedLu::CompressedLu(Matrix a)
    : perm_(a.rows())
{
    RSIN_REQUIRE(a.square(), "LU: matrix must be square");
    const std::size_t n = a.rows();
    // The same factorization (and singularity threshold) as LuFactors,
    // so both hold identical factors.
    const bool regular =
        kernels::factorLu(n, a.data(), n, perm_.data(), 1e-300);
    RSIN_REQUIRE(regular, "LU: matrix is singular");
    lowerBegin_.reserve(n + 1);
    upperBegin_.reserve(n);
    invPivot_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double *row = a.data() + i * n;
        lowerBegin_.push_back(values_.size());
        for (std::size_t j = 0; j < n; ++j) {
            if (j == i) {
                upperBegin_.push_back(values_.size());
                invPivot_.push_back(1.0 / row[i]);
            } else if (row[j] != 0.0) {
                cols_.push_back(static_cast<std::uint32_t>(j));
                values_.push_back(row[j]);
            }
        }
    }
    lowerBegin_.push_back(values_.size());
}

void
CompressedLu::solveRows(double *x, std::size_t nrhs) const
{
    // kernels::solveLuRows restricted to the stored nonzeros: forward
    // substitution through the unit lower triangle, then back
    // substitution through the upper one, each row's updates in
    // ascending column order.
    const std::size_t n = size();
    const std::uint32_t *cols = cols_.data();
    const double *vals = values_.data();
    if (nrhs == 1) {
        // One right-hand side: the running value stays in a register.
        for (std::size_t i = 0; i < n; ++i) {
            double xi = x[i];
            for (std::size_t k = lowerBegin_[i]; k < upperBegin_[i]; ++k)
                xi -= vals[k] * x[cols[k]];
            x[i] = xi;
        }
        for (std::size_t i = n; i-- > 0;) {
            double xi = x[i];
            for (std::size_t k = upperBegin_[i]; k < lowerBegin_[i + 1];
                 ++k)
                xi -= vals[k] * x[cols[k]];
            x[i] = xi * invPivot_[i];
        }
        return;
    }
    for (std::size_t i = 0; i < n; ++i)
        subtractRows(x + i * nrhs, x, nrhs, cols, vals, lowerBegin_[i],
                     upperBegin_[i]);
    for (std::size_t i = n; i-- > 0;) {
        double *xi = x + i * nrhs;
        subtractRows(xi, x, nrhs, cols, vals, upperBegin_[i],
                     lowerBegin_[i + 1]);
        const double inv = invPivot_[i];
        for (std::size_t c = 0; c < nrhs; ++c)
            xi[c] *= inv;
    }
}

LinearOperator
blockDiagonalPreconditioner(std::vector<const CompressedLu *> blocks,
                            std::vector<std::size_t> starts, std::size_t n)
{
    RSIN_REQUIRE(starts.size() == blocks.size(),
                 "blockDiagonalPreconditioner: starts/blocks mismatch");
    // Group the blocks by factorization, in order of first use; each
    // group is solved as one row-major (size x members) sweep.
    struct Group
    {
        const CompressedLu *lu = nullptr;
        std::vector<std::size_t> starts;
    };
    auto groups = std::make_shared<std::vector<Group>>();
    for (std::size_t b = 0; b < blocks.size(); ++b) {
        RSIN_REQUIRE(blocks[b] != nullptr &&
                         starts[b] + blocks[b]->size() <= n,
                     "blockDiagonalPreconditioner: block exceeds n");
        auto it = std::find_if(groups->begin(), groups->end(),
                               [&](const Group &g) {
                                   return g.lu == blocks[b];
                               });
        if (it == groups->end())
            it = groups->insert(groups->end(), Group{blocks[b], {}});
        it->starts.push_back(starts[b]);
    }
    LinearOperator op;
    op.n = n;
    op.apply = [groups, n](const double *x, double *y) {
        // Rows not covered by any block pass through unchanged.
        std::copy(x, x + n, y);
        Vector rhs;
        for (const Group &g : *groups) {
            const std::size_t size = g.lu->size();
            const std::size_t nrhs = g.starts.size();
            const std::vector<std::size_t> &perm = g.lu->perm();
            rhs.resize(size * nrhs);
            for (std::size_t i = 0; i < size; ++i)
                for (std::size_t c = 0; c < nrhs; ++c)
                    rhs[i * nrhs + c] = x[g.starts[c] + perm[i]];
            g.lu->solveRows(rhs.data(), nrhs);
            for (std::size_t i = 0; i < size; ++i)
                for (std::size_t c = 0; c < nrhs; ++c)
                    y[g.starts[c] + i] = rhs[i * nrhs + c];
        }
    };
    return op;
}

GmresResult
gmres(const LinearOperator &a, const Vector &b, Vector &x,
      const GmresOptions &opts, const LinearOperator *right_precond)
{
    const std::size_t n = a.n;
    RSIN_REQUIRE(b.size() == n, "gmres: rhs size mismatch");
    if (x.size() != n)
        x.assign(n, 0.0);
    const std::size_t m = std::max<std::size_t>(opts.restart, 1);

    const double bnorm = std::max(norm2(b), 1e-300);
    GmresResult result;

    // Workspace reused across restart cycles.
    std::vector<Vector> basis(m + 1, Vector(n, 0.0));
    Matrix hess(m + 1, m, 0.0);
    Vector cs(m, 0.0), sn(m, 0.0), g(m + 1, 0.0);
    Vector scratch(n, 0.0), precond_out(n, 0.0);

    const auto applyA = [&](const Vector &in, Vector &out) {
        if (right_precond != nullptr) {
            right_precond->apply(in.data(), precond_out.data());
            a.apply(precond_out.data(), out.data());
        } else {
            a.apply(in.data(), out.data());
        }
    };

    while (result.iterations < opts.maxIterations) {
        // Residual of the current iterate (true residual: the right
        // preconditioner does not distort it).
        a.apply(x.data(), scratch.data());
        for (std::size_t i = 0; i < n; ++i)
            basis[0][i] = b[i] - scratch[i];
        double beta = norm2(basis[0]);
        result.residual = beta / bnorm;
        if (result.residual <= opts.tolerance) {
            result.converged = true;
            return result;
        }
        for (std::size_t i = 0; i < n; ++i)
            basis[0][i] /= beta;
        std::fill(g.begin(), g.end(), 0.0);
        g[0] = beta;

        std::size_t k = 0;
        for (; k < m && result.iterations < opts.maxIterations; ++k) {
            ++result.iterations;
            applyA(basis[k], basis[k + 1]);
            // Modified Gram-Schmidt.
            for (std::size_t i = 0; i <= k; ++i) {
                const double h = dot(basis[k + 1], basis[i]);
                hess(i, k) = h;
                for (std::size_t j = 0; j < n; ++j)
                    basis[k + 1][j] -= h * basis[i][j];
            }
            const double h_next = norm2(basis[k + 1]);
            hess(k + 1, k) = h_next;
            if (h_next > 0.0)
                for (std::size_t j = 0; j < n; ++j)
                    basis[k + 1][j] /= h_next;
            // Apply accumulated Givens rotations to the new column.
            for (std::size_t i = 0; i < k; ++i) {
                const double t = cs[i] * hess(i, k) + sn[i] * hess(i + 1, k);
                hess(i + 1, k) =
                    -sn[i] * hess(i, k) + cs[i] * hess(i + 1, k);
                hess(i, k) = t;
            }
            const double denom = std::hypot(hess(k, k), hess(k + 1, k));
            if (denom == 0.0) {
                cs[k] = 1.0;
                sn[k] = 0.0;
            } else {
                cs[k] = hess(k, k) / denom;
                sn[k] = hess(k + 1, k) / denom;
            }
            hess(k, k) = cs[k] * hess(k, k) + sn[k] * hess(k + 1, k);
            hess(k + 1, k) = 0.0;
            g[k + 1] = -sn[k] * g[k];
            g[k] = cs[k] * g[k];
            if (std::fabs(g[k + 1]) / bnorm <= opts.tolerance) {
                ++k;
                break;
            }
            if (h_next == 0.0) {
                ++k;
                break; // exact breakdown: solution lies in the basis
            }
        }

        // Back-substitute y from the triangular Hessenberg system and
        // update x (through the preconditioner when present).
        Vector y(k, 0.0);
        for (std::size_t ii = k; ii-- > 0;) {
            double acc = g[ii];
            for (std::size_t jj = ii + 1; jj < k; ++jj)
                acc -= hess(ii, jj) * y[jj];
            // A zero pivot means the basis stagnated; keep y at 0 for
            // this direction instead of dividing by it.
            y[ii] = hess(ii, ii) != 0.0 ? acc / hess(ii, ii) : 0.0;
        }
        std::fill(scratch.begin(), scratch.end(), 0.0);
        for (std::size_t jj = 0; jj < k; ++jj)
            for (std::size_t i = 0; i < n; ++i)
                scratch[i] += y[jj] * basis[jj][i];
        if (right_precond != nullptr) {
            right_precond->apply(scratch.data(), precond_out.data());
            for (std::size_t i = 0; i < n; ++i)
                x[i] += precond_out[i];
        } else {
            for (std::size_t i = 0; i < n; ++i)
                x[i] += scratch[i];
        }
        if (k == 0)
            break; // no progress possible
    }

    a.apply(x.data(), scratch.data());
    double res = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double d = b[i] - scratch[i];
        res += d * d;
    }
    result.residual = std::sqrt(res) / bnorm;
    result.converged = result.residual <= opts.tolerance;
    return result;
}

} // namespace la
} // namespace rsin
