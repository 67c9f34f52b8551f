#include "sbus_solvers.hpp"

#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "markov/qbd.hpp"

namespace rsin {
namespace markov {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

SbusSolution
unstableSolution()
{
    SbusSolution sol;
    sol.stable = false;
    sol.meanQueueLength = kInf;
    sol.queueingDelay = kInf;
    sol.normalizedDelay = kInf;
    return sol;
}

double
sumOf(const la::Vector &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return s;
}

/**
 * Fill the utilization fields of @p sol given the level probabilities.
 * @p pi0 uses the boundary ordering, @p levels the level ordering,
 * @p level_weight an optional per-level multiplier (all 1 here).
 */
void
fillUtilization(SbusSolution &sol, const SbusChain &chain,
                const la::Vector &pi0,
                const std::vector<la::Vector> &levels)
{
    const std::size_t r = chain.params().r;
    double bus_busy = 0.0;
    double busy_resources = 0.0;
    // Boundary: k <= r is (0, 0, s=k); k = r+1+s is (0, 1, s).
    double no_wait = 0.0;
    for (std::size_t k = 0; k < pi0.size(); ++k) {
        if (k <= r) {
            busy_resources += static_cast<double>(k) * pi0[k];
            if (k < r)
                no_wait += pi0[k]; // idle bus, a free resource waits
        } else {
            bus_busy += pi0[k];
            busy_resources += static_cast<double>(k - r - 1) * pi0[k];
        }
    }
    sol.probNoWait = no_wait;
    for (const auto &pi : levels) {
        for (std::size_t j = 0; j <= r; ++j) {
            if (j < r) {
                bus_busy += pi[j];
                busy_resources += static_cast<double>(j) * pi[j];
            } else {
                busy_resources += static_cast<double>(r) * pi[j];
            }
        }
    }
    sol.busUtilization = bus_busy;
    sol.resourceUtilization = busy_resources / static_cast<double>(r);
    sol.probEmptySystem = pi0.empty() ? 0.0 : pi0[0];
}

} // namespace

namespace {

/**
 * One staged solve at a fixed elementary stage q+1.
 *
 * The elementary states x = pi_{q+1} are kept symbolic: every lower
 * level is a (r+1)x(r+1) matrix E_i with pi_i = x * E_i, obtained by
 * applying Eq. (2) downwards (possible because the up-level block
 * p*lambda*I is invertible while the down-level block is singular).
 * The recursion uses the balance equations of levels 2..q+1; the
 * remaining constraints -- level-1 balance and normalization -- then
 * pin x.  This cancellation is what limits precision at large q and
 * produces the paper's "increase q until d starts to decrease" rule.
 *
 * Returns false if the numbers overflowed (q too deep for the load).
 */
bool
stagedSolveAt(const SbusChain &chain, std::size_t q, SbusSolution &out)
{
    const auto &prm = chain.params();
    const double pl = prm.arrivalRate();
    const std::size_t n = chain.levelSize();
    const la::Matrix &a1 = chain.a1();
    const la::Matrix &a2 = chain.a2();

    // Downward symbolic recursion with running sums:
    //   S0 = sum_i E_i,  S1 = sum_i i * E_i  (i = 1 .. q+1).
    la::Matrix e_hi(n, n, 0.0);                 // E_{i+1}
    la::Matrix e_lo = la::Matrix::identity(n);  // E_i, starting at q+1
    la::Matrix s0 = e_lo;
    la::Matrix s1 = e_lo * static_cast<double>(q + 1);
    la::Matrix e2(n, n, 0.0); // E_2 snapshot for the level-1 balance
    if (q + 1 == 2)
        e2 = e_lo;
    la::Matrix e_next(n, n);
    for (std::size_t i = q + 1; i >= 2; --i) {
        la::multiplyInto(-1.0 / pl, e_lo, a1, e_next, false);
        la::multiplyInto(-1.0 / pl, e_hi, a2, e_next, true);
        std::swap(e_hi, e_lo);
        std::swap(e_lo, e_next);
        s0 = s0 + e_lo;
        s1 = s1 + e_lo * static_cast<double>(i - 1);
        if (i - 1 == 2)
            e2 = e_lo;
        // Keep magnitudes in range; rescaling every tracked quantity by
        // the same factor preserves the linear relationship to x.
        const double mag = e_lo.maxNorm();
        if (!std::isfinite(mag))
            return false;
        if (mag > 1e140) {
            const double inv = 1e-140;
            e_lo = e_lo * inv;
            e_hi = e_hi * inv;
            s0 = s0 * inv;
            s1 = s1 * inv;
            e2 = e2 * inv;
        }
    }
    const la::Matrix &e1 = e_lo; // E_1

    // pi_0 = x * F0 with F0 B00 = -E_1 B10 (level-0 balance): one
    // right division against B00's own factorization.
    const std::size_t nb = chain.boundarySize();
    la::Matrix rhs0(n, nb);
    la::multiplyInto(-1.0, e1, chain.b10(), rhs0, false);
    const la::Matrix f0 = la::LuFactors(chain.b00()).rightSolve(rhs0);

    // Level-1 balance: x (F0 B01 + E_1 A1 + E_2 A2) = 0, plus
    // normalization x (F0 1 + S0 1) = 1.  Replace the last balance
    // column with the normalization and solve the transpose system.
    la::Matrix m = f0 * chain.b01() + e1 * a1 + e2 * a2;
    la::Vector weight(n, 0.0);
    for (std::size_t row = 0; row < n; ++row) {
        double acc = 0.0;
        for (std::size_t c = 0; c < nb; ++c)
            acc += f0(row, c);
        for (std::size_t c = 0; c < n; ++c)
            acc += s0(row, c);
        weight[row] = acc;
    }
    la::Matrix sys(n, n);
    for (std::size_t row = 0; row < n; ++row) {
        for (std::size_t c = 0; c + 1 < n; ++c)
            sys(row, c) = m(row, c);
        sys(row, n - 1) = weight[row];
    }
    la::Vector rhs(n, 0.0);
    rhs[n - 1] = 1.0;
    la::Vector x;
    try {
        // x sys = rhs^T: transposed solve, no transposed copy.
        x = la::LuFactors(std::move(sys)).solveTransposed(rhs);
    } catch (const FatalError &) {
        return false; // singular at this depth
    }
    for (double v : x)
        if (!std::isfinite(v))
            return false;

    // Assemble the solution.
    const la::Vector pi0 = la::leftMultiply(x, f0);
    la::Vector tail_sum = la::leftMultiply(x, s0);
    const la::Vector tail_weighted = la::leftMultiply(x, s1);
    const double mean_l = sumOf(tail_weighted);
    if (!std::isfinite(mean_l) || mean_l < 0.0)
        return false;

    out = SbusSolution{};
    out.meanQueueLength = mean_l;
    out.queueingDelay = mean_l / pl;
    out.normalizedDelay = out.queueingDelay * prm.muS;
    out.levelsUsed = q;
    fillUtilization(out, chain, pi0, {tail_sum});
    return true;
}

} // namespace

SbusSolution
solveStaged(const SbusChain &chain, const SbusSolveOptions &opts)
{
    const auto &prm = chain.params();
    if (prm.lambda == 0.0) {
        SbusSolution sol;
        sol.probEmptySystem = 1.0;
        return sol;
    }
    if (!chain.stable())
        return unstableSolution();

    // The paper's procedure: start with a small q and grow it until d
    // stops improving.  Two effects compete: the truncation error
    // (which shrinks geometrically with q, pushing d up toward the
    // true value) and the cancellation noise in solving for the
    // elementary states (which grows with q -- "the maximum precision
    // in solving for the elementary states" of Section III).  We step
    // q additively and stop at the first sign of noise: d decreasing,
    // or the consecutive change growing instead of shrinking.
    double previous_d = -1.0;
    double previous_rel = std::numeric_limits<double>::infinity();
    SbusSolution best;
    bool have_best = false;
    for (std::size_t q = std::max<std::size_t>(opts.initialLevels, 4);
         q <= opts.maxLevels;
         q += std::max<std::size_t>(2, q / 3)) {
        SbusSolution sol;
        if (!stagedSolveAt(chain, q, sol))
            break; // numerics exhausted; keep the best so far
        if (have_best && previous_d >= 0.0) {
            const double rel = std::fabs(sol.queueingDelay - previous_d) /
                               std::max(previous_d, 1e-300);
            if (rel < opts.relTolerance)
                return sol;
            if (sol.queueingDelay < previous_d ||
                rel > previous_rel * 1.5)
                return best; // precision peak passed (paper's rule)
            previous_rel = rel;
        }
        previous_d = sol.queueingDelay;
        best = sol;
        have_best = true;
    }
    RSIN_REQUIRE(have_best,
                 "solveStaged: no usable depth up to ", opts.maxLevels,
                 " levels");
    return best;
}

SbusSolution
solveDirect(const SbusChain &chain, const SbusSolveOptions &opts)
{
    const auto &prm = chain.params();
    if (prm.lambda == 0.0) {
        SbusSolution sol;
        sol.probEmptySystem = 1.0;
        return sol;
    }
    if (!chain.stable())
        return unstableSolution();

    const double pl = prm.arrivalRate();
    const std::size_t n = chain.levelSize();
    double previous_d = -1.0;
    SbusSolution sol;

    for (std::size_t q = opts.initialLevels; q <= opts.maxLevels; q *= 2) {
        la::Vector pi0;
        std::vector<la::Vector> levels;
        if (opts.useDenseDirect) {
            // Validation oracle: LU-factor the full truncated
            // generator, exactly as the paper's "(r+1)(q+1) balance
            // equations" method.  O((q n)^3) -- keep q modest.
            const Ctmc truncated = chain.buildTruncated(q);
            const la::Vector pi = truncated.stationaryDense();
            pi0.resize(chain.boundarySize());
            for (std::size_t k = 0; k < pi0.size(); ++k)
                pi0[k] = pi[chain.truncatedIndex(0, k)];
            levels.resize(q);
            for (std::size_t level = 1; level <= q; ++level) {
                la::Vector v(n);
                for (std::size_t j = 0; j < n; ++j)
                    v[j] = pi[chain.truncatedIndex(level, j)];
                levels[level - 1] = std::move(v);
            }
        } else {
            // Banded route: per-level censoring recursion, O(q n^3),
            // never materializes the truncated generator.
            BandedStationary banded = solveBandedTruncated(
                chain.a0(), chain.a1(), chain.a2(), chain.b00(),
                chain.b01(), chain.b10(), q);
            pi0 = std::move(banded.boundary);
            levels = std::move(banded.levels);
        }
        double mean_l = 0.0;
        for (std::size_t level = 1; level <= q; ++level)
            mean_l += static_cast<double>(level) * sumOf(levels[level - 1]);
        const double top_mass = sumOf(levels.back());

        sol = SbusSolution{};
        sol.meanQueueLength = mean_l;
        sol.queueingDelay = mean_l / pl;
        sol.normalizedDelay = sol.queueingDelay * prm.muS;
        sol.levelsUsed = q;
        fillUtilization(sol, chain, pi0, levels);

        // Accept once the truncated tail is negligible (which bounds
        // the truncation error directly) or once the estimate has
        // stopped moving between depths.
        if (top_mass < opts.directTailMass)
            return sol;
        if (previous_d >= 0.0) {
            const double rel = std::fabs(sol.queueingDelay - previous_d) /
                               std::max(previous_d, 1e-300);
            if (rel < opts.relTolerance * 100)
                return sol;
        }
        previous_d = sol.queueingDelay;
    }
    return sol;
}

SbusSolution
solveMatrixGeometric(const SbusChain &chain)
{
    const auto &prm = chain.params();
    if (prm.lambda == 0.0) {
        SbusSolution sol;
        sol.probEmptySystem = 1.0;
        return sol;
    }
    if (!chain.stable())
        return unstableSolution();

    const double pl = prm.arrivalRate();
    const std::size_t n = chain.levelSize();
    const la::Matrix &a0 = chain.a0();
    const la::Matrix &a1 = chain.a1();
    const la::Matrix &a2 = chain.a2();

    // Rate matrix by logarithmic reduction: quadratic convergence in
    // the censoring depth, ~10 small-GEMM iterations where the old
    // fixed point R <- -(A0 + R^2 A2) A1^{-1} needed thousands of
    // sweeps near saturation.
    const LogReductionResult lr = logReduction(a0, a1, a2);
    if (!lr.converged)
        return unstableSolution();
    const la::Matrix &rmat = lr.r;

    // Spectral radius check (power iteration on R^T R would overshoot;
    // use plain power iteration with a few hundred steps).
    {
        la::Vector v(n, 1.0);
        double radius = 0.0;
        for (int it = 0; it < 500; ++it) {
            la::Vector w = la::leftMultiply(v, rmat);
            const double mag = la::normInf(w);
            if (mag == 0.0) {
                radius = 0.0;
                break;
            }
            for (auto &x : w)
                x /= mag;
            radius = mag;
            v = std::move(w);
        }
        if (radius >= 1.0 - 1e-12)
            return unstableSolution();
    }

    // Boundary system: unknown x = [pi_0 | pi_1] subject to
    //   pi_0 B00 + pi_1 B10 = 0            (boundary balance)
    //   pi_0 B01 + pi_1 (A1 + R A2) = 0    (level-1 balance)
    // with one equation replaced by normalization
    //   pi_0 . 1 + pi_1 (I - R)^{-1} 1 = 1.
    const std::size_t nb = chain.boundarySize();
    const std::size_t total = nb + n;
    la::Matrix sys(total, total, 0.0); // sys * x^T = rhs (column equations)
    la::Vector rhs(total, 0.0);

    const la::Matrix level1 = a1 + rmat * a2;
    // Equation index e < nb: balance of boundary state e.
    for (std::size_t e = 0; e < nb; ++e) {
        for (std::size_t i = 0; i < nb; ++i)
            sys(e, i) = chain.b00()(i, e);
        for (std::size_t j = 0; j < n; ++j)
            sys(e, nb + j) = chain.b10()(j, e);
    }
    // Equation index nb + e: balance of level-1 state e.
    for (std::size_t e = 0; e < n; ++e) {
        for (std::size_t i = 0; i < nb; ++i)
            sys(nb + e, i) = chain.b01()(i, e);
        for (std::size_t j = 0; j < n; ++j)
            sys(nb + e, nb + j) = level1(j, e);
    }
    // Replace the last equation with normalization.
    const la::Matrix i_minus_r = la::Matrix::identity(n) - rmat;
    const la::LuFactors imr(i_minus_r);
    const la::Vector tail_weight = imr.solve(la::Vector(n, 1.0));
    for (std::size_t i = 0; i < nb; ++i)
        sys(total - 1, i) = 1.0;
    for (std::size_t j = 0; j < n; ++j)
        sys(total - 1, nb + j) = tail_weight[j];
    rhs[total - 1] = 1.0;

    const la::Vector x = la::solve(sys, rhs);
    la::Vector pi0(nb), pi1(n);
    for (std::size_t i = 0; i < nb; ++i)
        pi0[i] = x[i];
    for (std::size_t j = 0; j < n; ++j)
        pi1[j] = x[nb + j];

    // E[l] = pi_1 (I - R)^{-2} 1.
    const la::Vector w = imr.solve(tail_weight);
    const double mean_l = la::dot(pi1, w);

    SbusSolution sol;
    sol.meanQueueLength = mean_l;
    sol.queueingDelay = mean_l / pl;
    sol.normalizedDelay = sol.queueingDelay * prm.muS;
    sol.levelsUsed = 0; // no truncation

    // Utilizations need the aggregate tail sum_{l>=1} pi_l =
    // pi_1 (I - R)^{-1}: one transposed solve against the factors
    // already built for the normalization column.
    const la::Vector tail_sum = imr.solveTransposed(pi1);
    fillUtilization(sol, chain, pi0, {tail_sum});
    return sol;
}

} // namespace markov
} // namespace rsin
