#include "sparse.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "common/error.hpp"

namespace rsin {
namespace la {

CsrMatrix
CsrMatrix::fromTriplets(std::size_t rows, std::size_t cols,
                        const Triplets &entries)
{
    CsrMatrix out;
    out.rows_ = rows;
    out.cols_ = cols;

    // Counting sort by row: count, prefix-sum, then scatter each entry
    // to its row's next slot, so every row holds its entries in
    // emission order.
    std::vector<std::size_t> start(rows + 1, 0);
    for (const Triplet &e : entries) {
        RSIN_REQUIRE(e.row < rows && e.col < cols,
                     "CsrMatrix::fromTriplets: entry out of range");
        ++start[e.row + 1];
    }
    for (std::size_t r = 0; r < rows; ++r)
        start[r + 1] += start[r];
    std::vector<std::size_t> next(start.begin(), start.end() - 1);
    out.colIdx_.resize(entries.size());
    out.values_.resize(entries.size());
    for (const Triplet &e : entries) {
        const std::size_t k = next[e.row]++;
        out.colIdx_[k] = e.col;
        out.values_[k] = e.value;
    }

    // Per row: a stable insertion sort by column (linear on rows that
    // arrive in column order, as the chain assemblies emit them), then
    // fold each run of duplicates, summed in emission order, into its
    // first slot.
    std::size_t *col = out.colIdx_.data();
    double *val = out.values_.data();
    out.rowPtr_.assign(rows + 1, 0);
    std::size_t kept = 0;
    for (std::size_t r = 0; r < rows; ++r) {
        const std::size_t begin = start[r];
        const std::size_t end = start[r + 1];
        for (std::size_t i = begin + 1; i < end; ++i) {
            const std::size_t c = col[i];
            const double v = val[i];
            std::size_t k = i;
            for (; k > begin && col[k - 1] > c; --k) {
                col[k] = col[k - 1];
                val[k] = val[k - 1];
            }
            col[k] = c;
            val[k] = v;
        }
        for (std::size_t i = begin; i < end;) {
            const std::size_t c = col[i];
            double sum = 0.0;
            for (; i < end && col[i] == c; ++i)
                sum += val[i];
            col[kept] = c;
            val[kept] = sum;
            ++kept;
        }
        out.rowPtr_[r + 1] = kept;
    }
    out.colIdx_.resize(kept);
    out.values_.resize(kept);
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

/** GMRES: Krylov dimension per restart cycle, total inner iterations,
 *  and the relative residual target. */
constexpr std::size_t kGmresRestart = 40;
constexpr std::size_t kGmresMaxIterations = 4000;
constexpr double kGmresTolerance = 1e-12;

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

CompressedLu::CompressedLu(std::size_t n, const Triplets &entries)
{
    RSIN_REQUIRE(n <= std::numeric_limits<std::uint32_t>::max(),
                 "LU: block too large for 32-bit columns");
    const CsrMatrix a = CsrMatrix::fromTriplets(n, n, entries);
    lowerBegin_.reserve(n + 1);
    upperBegin_.reserve(n);
    invPivot_.reserve(n);
    // Row i is scattered into a dense work row and reduced against the
    // finished rows k < i in ascending k; fill-in only moves right, so
    // one scan from the row's first column meets every multiplier
    // after all its own updates.  The same multiplier (entry times
    // reciprocal pivot), the same zero skips, the same update order
    // and the same singularity threshold as kernels::factorLu.
    std::vector<double> work(n, 0.0);
    const std::vector<std::size_t> &ptr = a.rowPtr();
    for (std::size_t i = 0; i < n; ++i) {
        std::size_t first = i; // no nonzero before it
        std::size_t last = i;  // nor beyond it
        for (std::size_t k = ptr[i]; k < ptr[i + 1]; ++k) {
            work[a.colIdx()[k]] = a.values()[k];
            first = std::min(first, a.colIdx()[k]);
            last = std::max(last, a.colIdx()[k]);
        }
        lowerBegin_.push_back(values_.size());
        for (std::size_t k = first; k < i; ++k) {
            const double factor = work[k] * invPivot_[k];
            work[k] = 0.0;
            if (factor == 0.0)
                continue;
            cols_.push_back(static_cast<std::uint32_t>(k));
            values_.push_back(factor);
            const std::size_t end = lowerBegin_[k + 1];
            for (std::size_t u = upperBegin_[k]; u < end; ++u)
                work[cols_[u]] -= factor * values_[u];
            if (upperBegin_[k] < end)
                last = std::max<std::size_t>(last, cols_[end - 1]);
        }
        const double pivot = work[i];
        work[i] = 0.0;
        RSIN_REQUIRE(std::fabs(pivot) > 1e-300, "LU: matrix is singular");
        upperBegin_.push_back(values_.size());
        invPivot_.push_back(1.0 / pivot);
        for (std::size_t j = i + 1; j <= last; ++j) {
            if (work[j] != 0.0) {
                cols_.push_back(static_cast<std::uint32_t>(j));
                values_.push_back(work[j]);
            }
            work[j] = 0.0;
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
            rhs.resize(size * nrhs);
            for (std::size_t i = 0; i < size; ++i)
                for (std::size_t c = 0; c < nrhs; ++c)
                    rhs[i * nrhs + c] = x[g.starts[c] + i];
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
      const LinearOperator *right_precond)
{
    const std::size_t n = a.n;
    RSIN_REQUIRE(b.size() == n, "gmres: rhs size mismatch");
    if (x.size() != n)
        x.assign(n, 0.0);
    const std::size_t m = kGmresRestart;

    const double bnorm = std::max(norm2(b), 1e-300);
    GmresResult result;

    // Workspace reused across restart cycles.  Each Krylov vector is
    // allocated when an iteration first reaches it: most solves
    // converge long before the restart length.
    std::vector<Vector> basis(m + 1);
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

    while (result.iterations < kGmresMaxIterations) {
        // Residual of the current iterate (true residual: the right
        // preconditioner does not distort it).
        a.apply(x.data(), scratch.data());
        basis[0].resize(n);
        for (std::size_t i = 0; i < n; ++i)
            basis[0][i] = b[i] - scratch[i];
        double beta = norm2(basis[0]);
        result.residual = beta / bnorm;
        if (result.residual <= kGmresTolerance) {
            result.converged = true;
            return result;
        }
        for (std::size_t i = 0; i < n; ++i)
            basis[0][i] /= beta;
        std::fill(g.begin(), g.end(), 0.0);
        g[0] = beta;

        std::size_t k = 0;
        for (; k < m && result.iterations < kGmresMaxIterations; ++k) {
            ++result.iterations;
            basis[k + 1].resize(n);
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
            if (std::fabs(g[k + 1]) / bnorm <= kGmresTolerance) {
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
    result.converged = result.residual <= kGmresTolerance;
    return result;
}

} // namespace la
} // namespace rsin
