#include "qbd.hpp"

#include <cmath>
#include <utility>

#include "common/error.hpp"

namespace rsin {
namespace markov {

LogReductionResult
logReduction(const la::Matrix &a0, const la::Matrix &a1,
             const la::Matrix &a2, double tol, std::size_t max_iter)
{
    RSIN_REQUIRE(a0.square() && a1.square() && a2.square() &&
                     a0.rows() == a1.rows() && a1.rows() == a2.rows(),
                 "logReduction: blocks must be square and same size");
    const std::size_t n = a0.rows();

    // Seed: H = (-A1)^{-1} A0 (up), L = (-A1)^{-1} A2 (down), both
    // from one factorization of the local block.
    const la::LuFactors neg_a1(a1 * -1.0);
    la::Matrix h = neg_a1.solveMatrix(a0);
    la::Matrix l = neg_a1.solveMatrix(a2);

    LogReductionResult out;
    out.g = l;
    la::Matrix t = h; // accumulated product of H-iterates

    la::Matrix u(n, n);
    la::Matrix h2(n, n);
    la::Matrix l2(n, n);
    for (std::size_t iter = 0; iter < max_iter; ++iter) {
        // U = H L + L H;  H <- (I-U)^{-1} H^2;  L <- (I-U)^{-1} L^2.
        la::multiplyInto(1.0, h, l, u, false);
        la::multiplyInto(1.0, l, h, u, true);
        la::Matrix i_minus_u = la::Matrix::identity(n) - u;
        const la::LuFactors f(i_minus_u);
        la::multiplyInto(1.0, h, h, h2, false);
        la::multiplyInto(1.0, l, l, l2, false);
        h = f.solveMatrix(h2);
        l = f.solveMatrix(l2);
        // G += T L;  T <- T H.  T shrinks quadratically for a positive
        // recurrent chain; once it underflows the tolerance the G
        // series has converged.
        la::multiplyInto(1.0, t, l, u, false); // u reused as scratch
        out.g = out.g + u;
        la::multiplyInto(1.0, t, h, h2, false); // h2 reused as scratch
        t = h2;
        out.iterations = iter + 1;
        const double coupling = t.maxNorm();
        if (!std::isfinite(coupling))
            return out; // diverged: not converged
        if (coupling < tol) {
            out.converged = true;
            break;
        }
    }
    if (!out.converged)
        return out;

    // R = A0 (-(A1 + A0 G))^{-1}: expected visits to level l+1 per
    // unit time in level l, before returning below.
    la::Matrix u_mat = a1;
    la::multiplyInto(1.0, a0, out.g, u_mat, true);
    out.r = la::LuFactors(u_mat * -1.0).rightSolve(a0);
    return out;
}

BandedStationary
solveBandedTruncated(const la::Matrix &a0, const la::Matrix &a1,
                     const la::Matrix &a2, const la::Matrix &b00,
                     const la::Matrix &b01, const la::Matrix &b10,
                     std::size_t levels)
{
    RSIN_REQUIRE(levels >= 1, "solveBandedTruncated: need >= 1 level");
    const std::size_t n = a1.rows();
    const std::size_t nb = b00.rows();
    RSIN_REQUIRE(b01.rows() == nb && b01.cols() == n &&
                     b10.rows() == n && b10.cols() == nb,
                 "solveBandedTruncated: boundary shape mismatch");

    // Downward censoring recursion.  Factor each censored local block
    // once; the factors serve the matrix solve on the way down and the
    // transposed vector solves on the way up.
    std::vector<la::LuFactors> factors;
    factors.reserve(levels);
    la::Matrix s = a1 + a0; // top level: up-rates truncated away
    for (std::size_t l = levels; l >= 1; --l) {
        factors.emplace_back(s * -1.0); // factors[levels - l] = -S_l
        if (l > 1) {
            // S_{l-1} = A1 + A0 (-S_l)^{-1} A2.
            const la::Matrix flow = factors.back().solveMatrix(a2);
            s = a1;
            la::multiplyInto(1.0, a0, flow, s, true);
        }
    }

    // Censored boundary generator S_0 = B00 + B01 (-S_1)^{-1} B10.
    const la::LuFactors &s1 = factors.back();
    la::Matrix s0 = b00;
    la::multiplyInto(1.0, b01, s1.solveMatrix(b10), s0, true);

    BandedStationary out;
    out.boundary = la::stationaryFromGenerator(std::move(s0));

    // Upward substitution: pi_1 = pi_0 B01 (-S_1)^{-1}, then
    // pi_{l+1} = pi_l A0 (-S_{l+1})^{-1}; vector-times-inverse is one
    // transposed solve against the stored factorization.
    out.levels.reserve(levels);
    la::Vector flow_up = la::leftMultiply(out.boundary, b01);
    out.levels.push_back(s1.solveTransposed(flow_up));
    for (std::size_t l = 2; l <= levels; ++l) {
        flow_up = la::leftMultiply(out.levels.back(), a0);
        out.levels.push_back(
            factors[levels - l].solveTransposed(flow_up));
    }

    // Global renormalization (stationaryFromGenerator normalized the
    // boundary within itself only).
    double mass = 0.0;
    for (double v : out.boundary)
        mass += v;
    for (const auto &pi : out.levels)
        for (double v : pi)
            mass += v;
    RSIN_REQUIRE(mass > 0.0, "solveBandedTruncated: degenerate mass");
    for (auto &v : out.boundary)
        v /= mass;
    for (auto &pi : out.levels)
        for (auto &v : pi)
            v /= mass;
    return out;
}

} // namespace markov
} // namespace rsin
