/**
 * @file
 * Unit tests for the dense linear algebra module.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "la/matrix.hpp"

namespace rsin {
namespace la {
namespace {

TEST(MatrixTest, ConstructionAndIndexing)
{
    Matrix m(2, 3, 1.5);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
    m(0, 0) = 7.0;
    EXPECT_DOUBLE_EQ(m(0, 0), 7.0);
}

TEST(MatrixTest, InitializerListAndRagged)
{
    Matrix m{{1, 2}, {3, 4}};
    EXPECT_DOUBLE_EQ(m(1, 0), 3.0);
    auto make_ragged = [] { return Matrix{{1, 2}, {3}}; };
    EXPECT_THROW(make_ragged(), FatalError);
}

TEST(MatrixTest, ArithmeticAndTranspose)
{
    Matrix a{{1, 2}, {3, 4}};
    Matrix b{{5, 6}, {7, 8}};
    Matrix sum = a + b;
    EXPECT_DOUBLE_EQ(sum(0, 1), 8.0);
    Matrix diff = b - a;
    EXPECT_DOUBLE_EQ(diff(1, 1), 4.0);
    Matrix prod = a * b;
    EXPECT_DOUBLE_EQ(prod(0, 0), 19.0);
    EXPECT_DOUBLE_EQ(prod(1, 1), 50.0);
    Matrix t = a.transpose();
    EXPECT_DOUBLE_EQ(t(0, 1), 3.0);
    Matrix scaled = a * 2.0;
    EXPECT_DOUBLE_EQ(scaled(1, 0), 6.0);
}

TEST(MatrixTest, IdentityAndMatVec)
{
    Matrix eye = Matrix::identity(3);
    Vector v{1, 2, 3};
    Vector out = eye * v;
    EXPECT_EQ(out, v);
    Matrix a{{1, 0, 2}, {0, 3, 0}, {4, 0, 5}};
    Vector w = a * v;
    EXPECT_DOUBLE_EQ(w[0], 7.0);
    EXPECT_DOUBLE_EQ(w[1], 6.0);
    EXPECT_DOUBLE_EQ(w[2], 19.0);
}

TEST(MatrixTest, ShapeMismatchThrows)
{
    Matrix a(2, 2), b(3, 3);
    EXPECT_THROW(a + b, FatalError);
    EXPECT_THROW(a * b, FatalError);
    const Vector v3{1, 2, 3};
    EXPECT_THROW(a * v3, FatalError);
}

TEST(LuTest, SolvesKnownSystem)
{
    Matrix a{{2, 1, -1}, {-3, -1, 2}, {-2, 1, 2}};
    Vector b{8, -11, -3};
    Vector x = solve(a, b);
    EXPECT_NEAR(x[0], 2.0, 1e-12);
    EXPECT_NEAR(x[1], 3.0, 1e-12);
    EXPECT_NEAR(x[2], -1.0, 1e-12);
}

TEST(LuTest, SingularThrows)
{
    Matrix a{{1, 2}, {2, 4}};
    EXPECT_THROW(LuFactors{a}, FatalError);
}

TEST(LuTest, RandomRoundTripProperty)
{
    Rng rng(99);
    for (int trial = 0; trial < 50; ++trial) {
        const std::size_t n = 1 + rng.uniformInt(std::uint64_t{12});
        Matrix a(n, n);
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < n; ++j)
                a(i, j) = rng.uniform(-1.0, 1.0);
            a(i, i) += static_cast<double>(n); // diagonally dominant
        }
        Vector x_true(n);
        for (auto &v : x_true)
            v = rng.uniform(-5.0, 5.0);
        const Vector b = a * x_true;
        const Vector x = solve(a, b);
        EXPECT_LT(normInf(subtract(x, x_true)), 1e-9);
    }
}

namespace {

Matrix
randomMatrix(Rng &rng, std::size_t rows, std::size_t cols)
{
    Matrix m(rows, cols);
    for (std::size_t i = 0; i < rows; ++i)
        for (std::size_t j = 0; j < cols; ++j)
            m(i, j) = rng.uniform(-1.0, 1.0);
    return m;
}

Matrix
randomDiagDominant(Rng &rng, std::size_t n)
{
    Matrix m = randomMatrix(rng, n, n);
    for (std::size_t i = 0; i < n; ++i)
        m(i, i) += static_cast<double>(n);
    return m;
}

Matrix
referenceProduct(const Matrix &a, const Matrix &b)
{
    Matrix out(a.rows(), b.cols());
    for (std::size_t i = 0; i < a.rows(); ++i)
        for (std::size_t k = 0; k < a.cols(); ++k)
            for (std::size_t j = 0; j < b.cols(); ++j)
                out(i, j) += a(i, k) * b(k, j);
    return out;
}

} // namespace

TEST(KernelTest, BlockedGemmMatchesReferenceAcrossShapes)
{
    // Shapes straddling every tile boundary (kKc = 256, kNc = 128,
    // 4-row micro-kernel, kNb = 48 LU panel).
    Rng rng(2024);
    const std::size_t dims[] = {1, 3, 4, 5, 47, 48, 49, 127, 130, 260};
    for (std::size_t m : dims) {
        for (std::size_t k : dims) {
            for (std::size_t n : dims) {
                if (m * k * n > 2000000)
                    continue;
                const Matrix a = randomMatrix(rng, m, k);
                const Matrix b = randomMatrix(rng, k, n);
                const Matrix got = a * b;
                const Matrix want = referenceProduct(a, b);
                EXPECT_LT((got - want).maxNorm(),
                          1e-12 * static_cast<double>(k) + 1e-13)
                    << "shape " << m << "x" << k << "x" << n;
            }
        }
    }
}

TEST(KernelTest, MultiplyIntoAccumulatesWithAlpha)
{
    Rng rng(11);
    const Matrix a = randomMatrix(rng, 7, 5);
    const Matrix b = randomMatrix(rng, 5, 9);
    Matrix out(7, 9, 1.0);
    multiplyInto(-2.0, a, b, out, true);
    const Matrix want = referenceProduct(a, b);
    for (std::size_t i = 0; i < out.rows(); ++i)
        for (std::size_t j = 0; j < out.cols(); ++j)
            EXPECT_NEAR(out(i, j), 1.0 - 2.0 * want(i, j), 1e-12);
    multiplyInto(1.0, a, b, out); // no accumulate: overwrite
    EXPECT_LT((out - want).maxNorm(), 1e-12);
    Matrix wrong(3, 3);
    EXPECT_THROW(multiplyInto(1.0, a, b, wrong), FatalError);
}

TEST(LuTest, LeftMultiplyMatchesTransposeProduct)
{
    Rng rng(31);
    const Matrix a = randomMatrix(rng, 6, 4);
    Vector x(6);
    for (auto &v : x)
        v = rng.uniform(-2.0, 2.0);
    const Vector got = leftMultiply(x, a);
    const Vector want = a.transpose() * x;
    for (std::size_t j = 0; j < got.size(); ++j)
        EXPECT_NEAR(got[j], want[j], 1e-12);
}

TEST(LuTest, SolveTransposedMatchesTransposeSolve)
{
    Rng rng(42);
    for (int trial = 0; trial < 30; ++trial) {
        const std::size_t n = 1 + rng.uniformInt(std::uint64_t{60});
        const Matrix a = randomDiagDominant(rng, n);
        Vector b(n);
        for (auto &v : b)
            v = rng.uniform(-3.0, 3.0);
        const Vector got = LuFactors(a).solveTransposed(b);
        const Vector want = solve(a.transpose(), b);
        EXPECT_LT(normInf(subtract(got, want)), 1e-9) << "n=" << n;
    }
}

TEST(LuTest, SolveMatrixRoundTrip)
{
    Rng rng(43);
    for (int trial = 0; trial < 20; ++trial) {
        const std::size_t n = 1 + rng.uniformInt(std::uint64_t{50});
        const std::size_t nrhs = 1 + rng.uniformInt(std::uint64_t{7});
        const Matrix a = randomDiagDominant(rng, n);
        const Matrix x_true = randomMatrix(rng, n, nrhs);
        const Matrix b = a * x_true;
        const Matrix x = LuFactors(a).solveMatrix(b);
        EXPECT_LT((x - x_true).maxNorm(), 1e-9) << "n=" << n;
    }
}

TEST(LuTest, RightSolveRoundTrip)
{
    Rng rng(44);
    for (int trial = 0; trial < 20; ++trial) {
        const std::size_t n = 1 + rng.uniformInt(std::uint64_t{50});
        const std::size_t nrows = 1 + rng.uniformInt(std::uint64_t{7});
        const Matrix a = randomDiagDominant(rng, n);
        const Matrix y_true = randomMatrix(rng, nrows, n);
        const Matrix x = y_true * a;
        const Matrix y = LuFactors(a).rightSolve(x);
        EXPECT_LT((y - y_true).maxNorm(), 1e-9) << "n=" << n;
    }
}

TEST(LuTest, BlockedFactorizationSpansPanelBoundary)
{
    // n > 2 panels exercises the panel solve + trailing GEMM update.
    Rng rng(45);
    const std::size_t n = 113;
    const Matrix a = randomDiagDominant(rng, n);
    Vector x_true(n);
    for (auto &v : x_true)
        v = rng.uniform(-5.0, 5.0);
    const Vector b = a * x_true;
    const Vector x = solve(a, b);
    EXPECT_LT(normInf(subtract(x, x_true)), 1e-8);
}

TEST(VectorOpsTest, NormsAndDot)
{
    Vector v{3, 4};
    EXPECT_DOUBLE_EQ(norm2(v), 5.0);
    EXPECT_DOUBLE_EQ(normInf(Vector{-7, 2}), 7.0);
    EXPECT_DOUBLE_EQ(dot(Vector{1, 2, 3}, Vector{4, 5, 6}), 32.0);
    EXPECT_THROW(dot(Vector{1}, Vector{1, 2}), FatalError);
}

TEST(StationaryTest, TwoStateChain)
{
    // Generator for rates a=2 (0->1), b=3 (1->0): pi = (b, a)/(a+b).
    Matrix q{{-2, 2}, {3, -3}};
    Vector pi = stationaryFromGenerator(q);
    EXPECT_NEAR(pi[0], 0.6, 1e-12);
    EXPECT_NEAR(pi[1], 0.4, 1e-12);
}

TEST(StationaryTest, RandomBirthDeathMatchesClosedForm)
{
    Rng rng(7);
    for (int trial = 0; trial < 20; ++trial) {
        const std::size_t n = 2 + rng.uniformInt(std::uint64_t{8});
        std::vector<double> birth(n - 1), death(n - 1);
        for (auto &x : birth)
            x = rng.uniform(0.5, 3.0);
        for (auto &x : death)
            x = rng.uniform(0.5, 3.0);
        Matrix q(n, n, 0.0);
        for (std::size_t i = 0; i + 1 < n; ++i) {
            q(i, i + 1) += birth[i];
            q(i, i) -= birth[i];
            q(i + 1, i) += death[i];
            q(i + 1, i + 1) -= death[i];
        }
        const Vector pi = stationaryFromGenerator(q);
        // Detailed balance: pi_i * birth_i = pi_{i+1} * death_i.
        for (std::size_t i = 0; i + 1 < n; ++i)
            EXPECT_NEAR(pi[i] * birth[i], pi[i + 1] * death[i], 1e-10);
    }
}

} // namespace
} // namespace la
} // namespace rsin
