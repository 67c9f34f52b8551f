#include "kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace rsin {
namespace la {
namespace kernels {

namespace {

// Tile sizes: the micro-kernel keeps four C row segments (4 * kNc
// doubles = 4 KiB) hot in L1 while streaming one B row segment per k
// step; a full (kKc x kNc) B tile (256 KiB) sits in L2.
constexpr std::size_t kKc = 256;
constexpr std::size_t kNc = 128;

/**
 * C[0..Rows) x [0..nc) += alpha * A(rows i..i+Rows, cols k0..k0+kc) *
 * Btile; @p arow points at A(i, k0) with row stride @p lda.
 */
template <std::size_t Rows>
inline void
micro(const double *arow, std::size_t lda, const double *btile,
      std::size_t ldb, double *crow, std::size_t ldc, std::size_t kc,
      std::size_t nc, double alpha)
{
    double *c[Rows];
    for (std::size_t t = 0; t < Rows; ++t)
        c[t] = crow + t * ldc;
    for (std::size_t kk = 0; kk < kc; ++kk) {
        double av[Rows];
        bool all_zero = true;
        for (std::size_t t = 0; t < Rows; ++t) {
            const double raw = arow[t * lda + kk];
            av[t] = alpha * raw;
            all_zero = all_zero && raw == 0.0;
        }
        if (all_zero)
            continue;
        const double *brow = btile + kk * ldb;
        for (std::size_t j = 0; j < nc; ++j) {
            const double bv = brow[j];
            for (std::size_t t = 0; t < Rows; ++t)
                c[t][j] += av[t] * bv;
        }
    }
}

} // namespace

// Kept out of line: inlined into factorLu's trailing update (which GCC
// 12 does when gemm has no other caller in this file), the dense
// 70-phase LD-QBD solve measured about 9% slower (x86-64, -O3).
[[gnu::noinline]] void
gemm(std::size_t m, std::size_t n, std::size_t k, double alpha,
     const double *a, std::size_t lda, const double *b, std::size_t ldb,
     double *c, std::size_t ldc, bool accumulate)
{
    if (!accumulate) {
        for (std::size_t i = 0; i < m; ++i)
            std::memset(c + i * ldc, 0, n * sizeof(double));
    }
    if (m == 0 || n == 0 || k == 0 || alpha == 0.0)
        return;
    for (std::size_t k0 = 0; k0 < k; k0 += kKc) {
        const std::size_t kc = std::min(kKc, k - k0);
        for (std::size_t j0 = 0; j0 < n; j0 += kNc) {
            const std::size_t nc = std::min(kNc, n - j0);
            const double *btile = b + k0 * ldb + j0;
            std::size_t i = 0;
            for (; i + 4 <= m; i += 4)
                micro<4>(a + i * lda + k0, lda, btile, ldb,
                         c + i * ldc + j0, ldc, kc, nc, alpha);
            for (; i < m; ++i)
                micro<1>(a + i * lda + k0, lda, btile, ldb,
                         c + i * ldc + j0, ldc, kc, nc, alpha);
        }
    }
}

void
gaxpyRow(std::size_t m, std::size_t n, const double *a, std::size_t lda,
         const double *x, double *y)
{
    std::memset(y, 0, n * sizeof(double));
    for (std::size_t i = 0; i < m; ++i) {
        const double xi = x[i];
        if (xi == 0.0)
            continue;
        const double *row = a + i * lda;
        for (std::size_t j = 0; j < n; ++j)
            y[j] += xi * row[j];
    }
}

void
gaxpyCol(std::size_t m, std::size_t n, const double *a, std::size_t lda,
         const double *x, double *y)
{
    for (std::size_t i = 0; i < m; ++i) {
        const double *row = a + i * lda;
        double acc = 0.0;
        for (std::size_t j = 0; j < n; ++j)
            acc += row[j] * x[j];
        y[i] = acc;
    }
}

bool
factorLu(std::size_t n, double *a, std::size_t lda, std::size_t *perm,
         double tiny)
{
    // Right-looking blocked LU: factor a kNb-wide panel with partial
    // pivoting (BLAS-2), forward-solve the U block row against the
    // panel's unit lower triangle, then rank-kNb update the trailing
    // block through the cache-blocked GEMM.
    constexpr std::size_t kNb = 48;
    for (std::size_t i = 0; i < n; ++i)
        perm[i] = i;
    for (std::size_t p0 = 0; p0 < n; p0 += kNb) {
        const std::size_t pb = std::min(kNb, n - p0);
        const std::size_t pend = p0 + pb;
        for (std::size_t col = p0; col < pend; ++col) {
            std::size_t pivot = col;
            double best = std::fabs(a[col * lda + col]);
            for (std::size_t r = col + 1; r < n; ++r) {
                const double cand = std::fabs(a[r * lda + col]);
                if (cand > best) {
                    best = cand;
                    pivot = r;
                }
            }
            if (best <= tiny)
                return false;
            if (pivot != col) {
                for (std::size_t j = 0; j < n; ++j)
                    std::swap(a[col * lda + j], a[pivot * lda + j]);
                std::swap(perm[col], perm[pivot]);
            }
            const double inv = 1.0 / a[col * lda + col];
            for (std::size_t r = col + 1; r < n; ++r) {
                const double factor = a[r * lda + col] * inv;
                a[r * lda + col] = factor;
                if (factor == 0.0)
                    continue;
                const double *src = a + col * lda;
                double *dst = a + r * lda;
                for (std::size_t j = col + 1; j < pend; ++j)
                    dst[j] -= factor * src[j];
            }
        }
        if (pend >= n)
            break;
        // U block row: L11^{-1} A12 (unit lower forward substitution).
        for (std::size_t i = p0 + 1; i < pend; ++i) {
            for (std::size_t t = p0; t < i; ++t) {
                const double factor = a[i * lda + t];
                if (factor == 0.0)
                    continue;
                const double *src = a + t * lda + pend;
                double *dst = a + i * lda + pend;
                for (std::size_t j = 0; j < n - pend; ++j)
                    dst[j] -= factor * src[j];
            }
        }
        // Trailing update: A22 -= L21 * U12.
        gemm(n - pend, n - pend, pb, -1.0, a + pend * lda + p0, lda,
             a + p0 * lda + pend, lda, a + pend * lda + pend, lda,
             true);
    }
    return true;
}

void
solveLuRows(std::size_t n, const double *lu, std::size_t lda, double *x,
            std::size_t nrhs, std::size_t ldx)
{
    // Forward substitution (unit lower triangle), streaming whole
    // right-hand-side rows.
    for (std::size_t i = 0; i < n; ++i) {
        double *xi = x + i * ldx;
        const double *row = lu + i * lda;
        for (std::size_t j = 0; j < i; ++j) {
            const double factor = row[j];
            if (factor == 0.0)
                continue;
            const double *xj = x + j * ldx;
            for (std::size_t c = 0; c < nrhs; ++c)
                xi[c] -= factor * xj[c];
        }
    }
    // Back substitution (upper triangle).
    for (std::size_t ii = n; ii > 0; --ii) {
        const std::size_t i = ii - 1;
        double *xi = x + i * ldx;
        const double *row = lu + i * lda;
        for (std::size_t j = i + 1; j < n; ++j) {
            const double factor = row[j];
            if (factor == 0.0)
                continue;
            const double *xj = x + j * ldx;
            for (std::size_t c = 0; c < nrhs; ++c)
                xi[c] -= factor * xj[c];
        }
        const double inv = 1.0 / row[i];
        for (std::size_t c = 0; c < nrhs; ++c)
            xi[c] *= inv;
    }
}

void
solveLuCols(std::size_t n, const double *lu, std::size_t lda, double *y,
            std::size_t nrows, std::size_t ldy)
{
    // W U = Z: finalize column j, then eliminate it from the columns
    // to its right -- per solution row, so every sweep is a row axpy.
    for (std::size_t j = 0; j < n; ++j) {
        const double inv = 1.0 / lu[j * lda + j];
        const double *urow = lu + j * lda;
        for (std::size_t r = 0; r < nrows; ++r) {
            double *yr = y + r * ldy;
            const double w = yr[j] * inv;
            yr[j] = w;
            if (w == 0.0)
                continue;
            for (std::size_t c = j + 1; c < n; ++c)
                yr[c] -= w * urow[c];
        }
    }
    // V L = W with unit diagonal: backward over columns.
    for (std::size_t jj = n; jj > 0; --jj) {
        const std::size_t j = jj - 1;
        const double *lrow = lu + j * lda;
        for (std::size_t r = 0; r < nrows; ++r) {
            double *yr = y + r * ldy;
            const double v = yr[j];
            if (v == 0.0)
                continue;
            for (std::size_t c = 0; c < j; ++c)
                yr[c] -= v * lrow[c];
        }
    }
}

} // namespace kernels
} // namespace la
} // namespace rsin
