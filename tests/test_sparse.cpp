/**
 * @file
 * Unit tests for the sparse engine: CSR assembly and the y = A x
 * kernel against the dense oracles, compressed LU factors and the
 * block-diagonal preconditioner bit for bit against dense LU, and
 * GMRES against dense LU.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "la/matrix.hpp"
#include "la/sparse.hpp"

namespace rsin {
namespace la {
namespace {

/** Random sparse matrix with ~density fill, plus its dense twin. */
CsrMatrix
randomSparse(Rng &rng, std::size_t rows, std::size_t cols,
             double density, Matrix &dense_out)
{
    Triplets entries;
    dense_out = Matrix(rows, cols, 0.0);
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t c = 0; c < cols; ++c)
            if (rng.uniform01() < density) {
                const double v = rng.uniform(-2.0, 2.0);
                entries.push_back({r, c, v});
                dense_out(r, c) += v;
            }
    return CsrMatrix::fromTriplets(rows, cols, entries);
}

TEST(CsrTest, AssemblySumsDuplicatesAndSortsColumns)
{
    const Triplets entries{
        {1, 2, 3.0}, {0, 1, 1.0}, {1, 2, -1.0}, {1, 0, 4.0},
        {2, 2, 5.0},
    };
    const CsrMatrix m = CsrMatrix::fromTriplets(3, 3, entries);
    EXPECT_EQ(m.nnz(), 4u); // the (1,2) pair collapsed
    const Matrix d = m.dense();
    EXPECT_DOUBLE_EQ(d(1, 2), 2.0);
    EXPECT_DOUBLE_EQ(d(1, 0), 4.0);
    EXPECT_DOUBLE_EQ(d(0, 1), 1.0);
    EXPECT_DOUBLE_EQ(d(2, 2), 5.0);
    // Columns sorted within each row.
    for (std::size_t r = 0; r < m.rows(); ++r)
        for (std::size_t i = m.rowPtr()[r] + 1; i < m.rowPtr()[r + 1];
             ++i)
            EXPECT_LT(m.colIdx()[i - 1], m.colIdx()[i]);
}

TEST(CsrTest, DuplicatesAreSummedInEmissionOrder)
{
    // Floating-point addition is not associative: in emission order
    // ((0 + 1e16) + -1e16) + 1 = 1, while any order that adds the 1
    // before the -1e16 rounds it away and sums to 0.
    const double big = 1e16;
    const Triplets entries{
        {1, 2, big}, {0, 0, 7.0}, {1, 2, -big}, {1, 0, 4.0},
        {1, 2, 1.0},
    };
    const CsrMatrix m = CsrMatrix::fromTriplets(2, 3, entries);
    EXPECT_EQ(m.nnz(), 3u);
    EXPECT_EQ(m.rowPtr(), (std::vector<std::size_t>{0, 1, 3}));
    EXPECT_EQ(m.colIdx(), (std::vector<std::size_t>{0, 0, 2}));
    EXPECT_EQ(m.values()[2], 1.0);
    EXPECT_EQ((0.0 + big + 1.0) + -big, 0.0); // the order it must not use
}

TEST(CsrTest, EmptyRowsAndMatrix)
{
    const CsrMatrix empty = CsrMatrix::fromTriplets(3, 2, {});
    EXPECT_EQ(empty.nnz(), 0u);
    const Vector y = empty * Vector{1.0, 1.0};
    EXPECT_EQ(y, Vector(3, 0.0));
}

TEST(CsrTest, SpmvMatchesDenseOnPropertyGrid)
{
    Rng rng(42);
    for (const std::size_t rows : {1u, 5u, 17u, 40u})
        for (const std::size_t cols : {1u, 7u, 33u})
            for (const double density : {0.05, 0.3, 0.9}) {
                Matrix dense;
                const CsrMatrix m =
                    randomSparse(rng, rows, cols, density, dense);
                Vector x(cols);
                for (auto &v : x)
                    v = rng.uniform(-1.0, 1.0);
                const Vector y_sparse = m * x;
                const Vector y_dense = dense * x;
                ASSERT_EQ(y_sparse.size(), y_dense.size());
                for (std::size_t i = 0; i < rows; ++i)
                    EXPECT_NEAR(y_sparse[i], y_dense[i], 1e-13)
                        << rows << "x" << cols << " @" << density;
            }
}

/** Random diagonally-dominant system (guaranteed solvable). */
CsrMatrix
randomSystem(Rng &rng, std::size_t n, Matrix &dense_out)
{
    Triplets entries;
    dense_out = Matrix(n, n, 0.0);
    for (std::size_t r = 0; r < n; ++r) {
        double offsum = 0.0;
        for (std::size_t c = 0; c < n; ++c) {
            if (c == r || rng.uniform01() > 0.3)
                continue;
            const double v = rng.uniform(-1.0, 1.0);
            entries.push_back({r, c, v});
            dense_out(r, c) = v;
            offsum += std::fabs(v);
        }
        const double diag = offsum + 1.0 + rng.uniform01();
        entries.push_back({r, r, diag});
        dense_out(r, r) = diag;
    }
    return CsrMatrix::fromTriplets(n, n, entries);
}

/**
 * Random column diagonally dominant block with ~@p density off-diagonal
 * fill, as the triplets CompressedLu takes and the dense matrix
 * LuFactors takes: the other entries are exact zeros, which the
 * factorization keeps as zero multipliers wherever no fill-in reaches
 * them.  Each diagonal entry arrives as two triplets, summed in
 * emission order by both.  Dominance keeps partial pivoting from
 * swapping rows, as in the transposed generator blocks CompressedLu
 * is built for.
 */
Triplets
randomBlock(Rng &rng, std::size_t n, double density, Matrix &dense_out)
{
    Triplets entries;
    std::vector<double> colsum(n, 0.0);
    for (std::size_t r = 0; r < n; ++r)
        for (std::size_t c = 0; c < n; ++c)
            if (c != r && rng.uniform01() < density) {
                entries.push_back({r, c, rng.uniform(-1.0, 1.0)});
                colsum[c] += std::fabs(entries.back().value);
            }
    for (std::size_t c = 0; c < n; ++c) {
        const double diag = (rng.uniform01() < 0.5 ? -1.0 : 1.0) *
                            (colsum[c] + 0.5 + rng.uniform01());
        entries.push_back({c, c, 0.5 * diag});
        entries.push_back({c, c, diag - 0.5 * diag});
    }
    dense_out = Matrix(n, n, 0.0);
    for (const Triplet &e : entries)
        dense_out(e.row, e.col) += e.value;
    return entries;
}

/** The nonzero entries of @p m, row by row. */
Triplets
tripletsOf(const Matrix &m)
{
    Triplets entries;
    for (std::size_t r = 0; r < m.rows(); ++r)
        for (std::size_t c = 0; c < m.cols(); ++c)
            if (m(r, c) != 0.0)
                entries.push_back({r, c, m(r, c)});
    return entries;
}

Vector
randomVector(Rng &rng, std::size_t n)
{
    Vector v(n);
    for (auto &x : v)
        x = rng.uniform01() < 0.2 ? 0.0 : rng.uniform(-1.0, 1.0);
    return v;
}

void
expectBitIdentical(const Vector &got, const Vector &want,
                   const std::string &label)
{
    ASSERT_EQ(got.size(), want.size()) << label;
    for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                  std::bit_cast<std::uint64_t>(want[i]))
            << label << " entry " << i << ": " << got[i] << " vs "
            << want[i];
}

TEST(CompressedLuTest, SolvesBitIdenticalToDenseLu)
{
    Rng rng(555);
    struct Shape
    {
        std::size_t n;
        double density;
    };
    for (const Shape shape : {Shape{1, 0.0}, Shape{9, 0.1},
                              Shape{40, 0.05}, Shape{40, 0.2},
                              Shape{97, 0.08}, Shape{150, 0.03},
                              Shape{33, 1.0}}) {
        Matrix a;
        const Triplets entries = randomBlock(rng, shape.n, shape.density, a);
        const LuFactors dense(a);
        const CompressedLu compressed(shape.n, entries);
        ASSERT_EQ(compressed.size(), shape.n);
        if (shape.density < 1.0 && shape.n > 1) {
            EXPECT_LT(compressed.nnz(), shape.n * (shape.n - 1))
                << "no exact zeros survived at n=" << shape.n;
        }
        for (const std::size_t nrhs : {1u, 37u}) {
            std::vector<Vector> columns;
            for (std::size_t c = 0; c < nrhs; ++c)
                columns.push_back(randomVector(rng, shape.n));
            // Row-major, as solveRows expects.
            Vector x(shape.n * nrhs);
            for (std::size_t i = 0; i < shape.n; ++i)
                for (std::size_t c = 0; c < nrhs; ++c)
                    x[i * nrhs + c] = columns[c][i];
            compressed.solveRows(x.data(), nrhs);
            for (std::size_t c = 0; c < nrhs; ++c) {
                const std::string label =
                    "n=" + std::to_string(shape.n) + " nrhs=" +
                    std::to_string(nrhs) + " column " + std::to_string(c);
                Vector got(shape.n);
                for (std::size_t i = 0; i < shape.n; ++i)
                    got[i] = x[i * nrhs + c];
                expectBitIdentical(got, dense.solve(columns[c]), label);
            }
        }
    }
}

TEST(CompressedLuTest, SingularBlockThrows)
{
    const Matrix a{{1.0, 2.0}, {2.0, 4.0}};
    EXPECT_THROW(CompressedLu(2, tripletsOf(a)), FatalError);
}

TEST(BlockPreconditionerTest, MatchesPerBlockLuBitForBit)
{
    // Three factorizations of two sizes laid out A B C C B A, plus
    // three uncovered rows at the end that must pass through.
    Rng rng(808);
    Matrix ma, mb, mc;
    const CompressedLu ca(5, randomBlock(rng, 5, 0.3, ma));
    const CompressedLu cb(8, randomBlock(rng, 8, 0.2, mb));
    const CompressedLu cc(8, randomBlock(rng, 8, 1.0, mc));
    const LuFactors la(ma), lb(mb), lc(mc);
    const std::vector<const CompressedLu *> blocks = {&ca, &cb, &cc,
                                                      &cc, &cb, &ca};
    const std::vector<const LuFactors *> oracle = {&la, &lb, &lc,
                                                   &lc, &lb, &la};
    std::vector<std::size_t> starts;
    std::size_t n = 0;
    for (const CompressedLu *b : blocks) {
        starts.push_back(n);
        n += b->size();
    }
    const std::size_t covered = n;
    n += 3;
    const LinearOperator precond =
        blockDiagonalPreconditioner(blocks, starts, n);
    ASSERT_EQ(precond.n, n);
    for (int trial = 0; trial < 3; ++trial) {
        const Vector x = randomVector(rng, n);
        Vector y(n, -7.0);
        precond.apply(x.data(), y.data());
        for (std::size_t b = 0; b < blocks.size(); ++b) {
            const std::size_t size = blocks[b]->size();
            const Vector slice(x.begin() + static_cast<std::ptrdiff_t>(
                                               starts[b]),
                               x.begin() + static_cast<std::ptrdiff_t>(
                                               starts[b] + size));
            const Vector got(
                y.begin() + static_cast<std::ptrdiff_t>(starts[b]),
                y.begin() + static_cast<std::ptrdiff_t>(starts[b] + size));
            expectBitIdentical(got, oracle[b]->solve(slice),
                               "block " + std::to_string(b));
        }
        for (std::size_t i = covered; i < n; ++i)
            EXPECT_EQ(std::bit_cast<std::uint64_t>(y[i]),
                      std::bit_cast<std::uint64_t>(x[i]));
    }
}

TEST(BlockPreconditionerTest, RejectsBlocksPastTheEnd)
{
    const CompressedLu c(4, tripletsOf(Matrix::identity(4)));
    EXPECT_THROW(blockDiagonalPreconditioner({&c, &c}, {0, 3}, 6),
                 FatalError);
    EXPECT_THROW(blockDiagonalPreconditioner({&c}, {0, 4}, 8),
                 FatalError);
}

TEST(GmresTest, MatchesDenseLuOnPropertyGrid)
{
    Rng rng(123);
    for (const std::size_t n : {1u, 4u, 19u, 60u}) {
        Matrix dense;
        const CsrMatrix m = randomSystem(rng, n, dense);
        Vector b(n);
        for (auto &v : b)
            v = rng.uniform(-1.0, 1.0);
        const Vector oracle = LuFactors(dense).solve(b);
        Vector x(n, 0.0);
        const GmresResult res = gmres(asOperator(m), b, x);
        EXPECT_TRUE(res.converged) << "n=" << n;
        EXPECT_LT(res.residual, 1e-10);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_NEAR(x[i], oracle[i], 1e-8) << "n=" << n;
    }
}

TEST(GmresTest, RightPreconditionersPreserveTheSolution)
{
    Rng rng(321);
    const std::size_t n = 48;
    Matrix dense;
    const CsrMatrix m = randomSystem(rng, n, dense);
    Vector b(n);
    for (auto &v : b)
        v = rng.uniform(-1.0, 1.0);
    const Vector oracle = LuFactors(dense).solve(b);

    // Block-diagonal preconditioner: three dense blocks of 16, the
    // last factorization shared by the last two blocks.
    Matrix block0(16, 16, 0.0), block1(16, 16, 0.0);
    for (std::size_t r = 0; r < 16; ++r)
        for (std::size_t c = 0; c < 16; ++c) {
            block0(r, c) = dense(r, c);
            block1(r, c) = dense(16 + r, 16 + c);
        }
    const CompressedLu factor0(16, tripletsOf(block0));
    const CompressedLu factor1(16, tripletsOf(block1));
    const LinearOperator block = blockDiagonalPreconditioner(
        {&factor0, &factor1, &factor1}, {0, 16, 32}, n);
    Vector x_block(n, 0.0);
    const GmresResult res_b =
        gmres(asOperator(m), b, x_block, &block);
    EXPECT_TRUE(res_b.converged);

    for (std::size_t i = 0; i < n; ++i)
        EXPECT_NEAR(x_block[i], oracle[i], 1e-8);
}

TEST(GmresTest, WarmStartAtTheSolutionReturnsImmediately)
{
    Rng rng(99);
    const std::size_t n = 12;
    Matrix dense;
    const CsrMatrix m = randomSystem(rng, n, dense);
    Vector b(n);
    for (auto &v : b)
        v = rng.uniform(-1.0, 1.0);
    Vector x = LuFactors(dense).solve(b);
    const GmresResult res = gmres(asOperator(m), b, x);
    EXPECT_TRUE(res.converged);
    EXPECT_EQ(res.iterations, 0u);
}

} // namespace
} // namespace la
} // namespace rsin
