#include "ldqbd.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace rsin {
namespace markov {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/** Multiplier turning the observed depth-doubling change into the
 *  certified bound (covers the geometric remainder of the series of
 *  future changes). */
constexpr double kBoundSafety = 4.0;

la::Matrix
densify(const la::Triplets &entries, std::size_t n)
{
    la::Matrix m(n, n, 0.0);
    for (const auto &e : entries)
        m(e.row, e.col) += e.value;
    return m;
}

/** The limiting (level -> infinity) chain of a model. */
struct LimitChain
{
    la::Triplets a1; ///< the limiting A1 block
    /** Stationary vector of A0 + A1 + A2: the limiting phase marginal. */
    la::Vector xi;
    /** Mean drift under xi (up rate minus down rate) is negative. */
    bool stable = false;
};

LimitChain
limitChain(const LdQbdModel &model)
{
    const std::size_t n = model.phases();
    LimitChain lim;
    la::Triplets a0, a2;
    model.limitBlocks(a0, lim.a1, a2);
    {
        // (A0 + A1) + A2, summed in place with one densified addend
        // live at a time; the sum is then factored in place.
        la::Matrix generator = densify(a0, n);
        generator += densify(lim.a1, n);
        generator += densify(a2, n);
        lim.xi = la::stationaryFromGenerator(std::move(generator));
    }
    la::Vector up(n, 0.0), down(n, 0.0);
    for (const auto &e : a0)
        up[e.row] += e.value;
    for (const auto &e : a2)
        down[e.row] += e.value;
    const double drift_up = la::dot(lim.xi, up);
    const double drift_down = la::dot(lim.xi, down);
    lim.stable = drift_up < drift_down * (1.0 - 1e-12);
    return lim;
}

/** One truncation depth's answer: all the depth loop needs from
 *  sparseSolveAt(). */
struct DepthEstimate
{
    double meanLevel = 0.0;
    double tailMass = 0.0;
    /** Relative error the levels beyond the depth can still cause in
     *  meanLevel (the certificate's tail term). */
    double tailError = 0.0;
    la::Vector levelZero;
    la::Vector phaseMarginal;
};

/** A1 of one level transposed (in place), as compressed LU factors. */
la::CompressedLu
factorTransposed(la::Triplets a1, std::size_t n)
{
    for (auto &e : a1)
        std::swap(e.row, e.col);
    return la::CompressedLu(n, a1);
}

/**
 * The Galerkin coarse system R M P of a truncated chain's transposed
 * generator M over its depth+1 level aggregates: R sums each level,
 * P spreads a level's mass over its phases by the limiting phase
 * marginal xi.  Levels exchange mass only with their neighbours, so
 * every coarse row but the first is tridiagonal; row 0, which sums
 * the normalization row into level 0, is dense.  Factored by
 * eliminating the levels from the top down, the order in which a
 * level birth-death chain censors its levels: the rows of levels >= 1
 * form a transposed generator, column diagonally dominant, so the
 * elimination needs no pivoting.
 */
class LevelCoarse
{
  public:
    LevelCoarse(const la::CsrMatrix &m, const la::Vector &xi,
                std::size_t depth)
        : sub_(depth + 1, 0.0), diag_(depth + 1, 0.0),
          sup_(depth + 1, 0.0), top_(depth + 1, 0.0)
    {
        const std::size_t n = xi.size();
        const auto &ptr = m.rowPtr();
        const auto &col = m.colIdx();
        const auto &val = m.values();
        for (std::size_t l = 0; l <= depth; ++l) {
            const std::size_t lo = l * n;
            for (std::size_t i = lo; i < lo + n; ++i)
                for (std::size_t k = ptr[i]; k < ptr[i + 1]; ++k) {
                    const std::size_t j = col[k];
                    const std::size_t lj = j / n;
                    const double w = val[k] * xi[j - lj * n];
                    if (l == 0)
                        top_[lj] += w;
                    else if (lj < l)
                        sub_[l] += w;
                    else if (lj == l)
                        diag_[l] += w;
                    else
                        sup_[l] += w;
                }
        }
        // Eliminate level l from the rows above it; sup_ and top_ end
        // up holding the multipliers.
        for (std::size_t l = depth; l >= 1; --l) {
            if (l >= 2) {
                sup_[l - 1] /= diag_[l];
                diag_[l - 1] -= sup_[l - 1] * sub_[l];
            }
            top_[l] /= diag_[l];
            top_[l - 1] -= top_[l] * sub_[l];
        }
    }

    /** Solve the coarse system in place: @p b has depth+1 entries. */
    void solve(double *b) const
    {
        const std::size_t depth = diag_.size() - 1;
        for (std::size_t l = depth; l >= 1; --l) {
            if (l >= 2)
                b[l - 1] -= sup_[l - 1] * b[l];
            b[0] -= top_[l] * b[l];
        }
        b[0] /= top_[0];
        for (std::size_t l = 1; l <= depth; ++l)
            b[l] = (b[l] - sub_[l] * b[l - 1]) / diag_[l];
    }

  private:
    std::vector<double> sub_, diag_, sup_, top_;
};

/** What the depths of one sparse solve share. */
struct SparseSolve
{
    /** The smoother's two factors: level 0's A1 as it is (the
     *  normalization row stays in the operator) and the limiting A1,
     *  shared by every level >= 1. */
    la::CompressedLu boundary;
    la::CompressedLu interior;
    la::Vector xi;     ///< prolongation weights (limiting marginal)
    la::Vector x;      ///< the previous depth's solution (warm start)
};

/**
 * Assemble the transposed generator of the chain truncated (reflected)
 * at level @p depth and solve its stationary vector by GMRES on the
 * normalization-patched system, right-preconditioned by one symmetric
 * two-level cycle:
 *
 *   z  = S^{-1} r                    block-Jacobi smoothing,
 *   z += P A_c^{-1} R (r - M z)      coarse correction (LevelCoarse),
 *   z += S^{-1} (r - M z)            block-Jacobi smoothing again.
 *
 * S holds the two factors of @p solve, so nothing is factored per
 * depth but the (depth+1)-square coarse system.  Block Jacobi alone
 * cannot move mass between levels, which is what slows GMRES at high
 * load; the coarse system does exactly that (iterative
 * aggregation-disaggregation).  @p solve.x carries the previous
 * depth's solution in as a warm start and this depth's out.  The GMRES
 * iterations are added to @p res.
 */
DepthEstimate
sparseSolveAt(const LdQbdModel &model, std::size_t depth,
              SparseSolve &solve, LdQbdResult &res)
{
    const std::size_t n = model.phases();
    const std::size_t states = n * (depth + 1);

    // Transposed entries: M[to][from] = rate.  The top level folds A0
    // into the diagonal block (reflecting truncation, which keeps the
    // generator conservative), and the balance equation of state 0 is
    // replaced by the normalization row.
    la::Triplets entries;
    la::Triplets b0, b1, b2;
    for (std::size_t l = 0; l <= depth; ++l) {
        b0.clear();
        b1.clear();
        b2.clear();
        model.levelBlocks(l, b0, b1, b2);
        if (l == 1) {
            // No deeper level has more entries than level 1: size the
            // list once instead of letting push_back hold an old and a
            // doubled buffer at once.
            entries.reserve(entries.size() +
                            depth * (b0.size() + b1.size() + b2.size()) +
                            states);
        }
        const std::size_t base = l * n;
        const bool top = l == depth;
        const auto emit = [&](std::size_t from, std::size_t to,
                              double rate) {
            if (to != 0)
                entries.push_back({to, from, rate});
        };
        for (const auto &e : b1)
            emit(base + e.row, base + e.col, e.value);
        for (const auto &e : b0)
            emit(base + e.row, base + (top ? 0 : n) + e.col, e.value);
        for (const auto &e : b2)
            emit(base + e.row, base - n + e.col, e.value);
    }
    for (std::size_t i = 0; i < states; ++i)
        entries.push_back({0, i, 1.0});

    const la::CsrMatrix m =
        la::CsrMatrix::fromTriplets(states, states, entries);
    entries = la::Triplets();

    std::vector<const la::CompressedLu *> blocks(depth + 1,
                                                 &solve.interior);
    blocks[0] = &solve.boundary;
    std::vector<std::size_t> starts(depth + 1);
    for (std::size_t l = 0; l <= depth; ++l)
        starts[l] = l * n;
    const la::LinearOperator smooth = la::blockDiagonalPreconditioner(
        std::move(blocks), std::move(starts), states);
    const LevelCoarse coarse(m, solve.xi, depth);

    la::Vector residual(states), smoothed(states), aggregate(depth + 1);
    la::LinearOperator cycle;
    cycle.n = states;
    cycle.apply = [&](const double *r, double *z) {
        const auto residualOf = [&] {
            m.multiply(z, residual.data());
            for (std::size_t i = 0; i < states; ++i)
                residual[i] = r[i] - residual[i];
        };
        smooth.apply(r, z);
        residualOf();
        for (std::size_t l = 0; l <= depth; ++l) {
            double sum = 0.0;
            for (std::size_t p = 0; p < n; ++p)
                sum += residual[l * n + p];
            aggregate[l] = sum;
        }
        coarse.solve(aggregate.data());
        for (std::size_t l = 0; l <= depth; ++l)
            for (std::size_t p = 0; p < n; ++p)
                z[l * n + p] += aggregate[l] * solve.xi[p];
        residualOf();
        smooth.apply(residual.data(), smoothed.data());
        for (std::size_t i = 0; i < states; ++i)
            z[i] += smoothed[i];
    };

    la::Vector rhs(states, 0.0);
    rhs[0] = 1.0;
    la::Vector &x = solve.x;
    x.resize(states, 0.0);
    const la::LinearOperator op = la::asOperator(m);
    la::GmresResult gr = la::gmres(op, rhs, x, &cycle);
    res.gmresIterations += gr.iterations;
    if (gr.iterations == 0) {
        // Only a warm start can meet the residual target before the
        // first iteration: the padded previous-depth vector came back
        // untouched, so this depth would repeat the previous answer
        // bit for bit and certify a change of exactly 0.  Solve the
        // depth from zero instead.
        std::fill(x.begin(), x.end(), 0.0);
        gr = la::gmres(op, rhs, x, &cycle);
        res.gmresIterations += gr.iterations;
    }
    RSIN_REQUIRE(gr.converged,
                 "solveStationary: iterative solver did not converge at "
                 "depth ", depth);

    // Metrics from the (re)normalized level masses; clamp the
    // iterative solver's negative dust.
    la::Vector level_mass(depth + 1, 0.0);
    double total = 0.0;
    for (std::size_t l = 0; l <= depth; ++l) {
        for (std::size_t p = 0; p < n; ++p) {
            const double v = std::max(x[l * n + p], 0.0);
            level_mass[l] += v;
        }
        total += level_mass[l];
    }
    RSIN_REQUIRE(total > 0.0, "solveStationary: zero stationary mass");
    double mean = 0.0;
    for (std::size_t l = 0; l <= depth; ++l)
        mean += static_cast<double>(l) * level_mass[l];
    mean /= total;
    DepthEstimate est;
    est.meanLevel = mean;
    est.levelZero.assign(n, 0.0);
    est.phaseMarginal.assign(n, 0.0);
    for (std::size_t l = 0; l <= depth; ++l)
        for (std::size_t p = 0; p < n; ++p) {
            const double v = std::max(x[l * n + p], 0.0) / total;
            est.phaseMarginal[p] += v;
            if (l == 0)
                est.levelZero[p] = v;
        }

    // A-posteriori geometric tail certificate from the observed
    // per-level mass decay at the truncation edge.
    const double top_mass = level_mass[depth] / total;
    const double prev_mass =
        depth >= 1 ? level_mass[depth - 1] / total : top_mass;
    double eta = prev_mass > 0.0 ? top_mass / prev_mass : 0.0;
    eta = std::min(std::max(eta, 0.0), 0.999);
    est.tailMass = top_mass * eta / (1.0 - eta);
    const double tail_mean =
        top_mass * (static_cast<double>(depth) * eta / (1.0 - eta) +
                    eta / ((1.0 - eta) * (1.0 - eta)));
    est.tailError = tail_mean / std::max(mean, 1e-12);
    return est;
}

} // namespace

LdQbdResult
solveStationary(const LdQbdModel &model, const LdQbdOptions &opts)
{
    LimitChain limit = limitChain(model);
    LdQbdResult res;
    if (!limit.stable) {
        res.stable = false;
        res.meanLevel = kInf;
        return res;
    }

    const std::size_t n = model.phases();
    // Keep the assembled system within a sane footprint.
    const std::size_t state_cap = 1'500'000;
    const std::size_t cap = std::min(
        opts.maxLevels,
        std::max<std::size_t>(opts.initialLevels,
                              state_cap / std::max<std::size_t>(n, 1)));
    la::Triplets a0, a1, a2;
    model.levelBlocks(0, a0, a1, a2);
    SparseSolve solve{factorTransposed(std::move(a1), n),
                      factorTransposed(std::move(limit.a1), n),
                      std::move(limit.xi), {}};
    res.factorizations = 2;

    // Double the depth from max(initialLevels, 4) up to the cap until
    // the mean level stops moving, or until the tail term says the
    // levels beyond the depth cannot move it by more than the
    // tolerance.
    double previous_mean = -1.0;
    double rel_change = kInf;
    std::size_t depth =
        std::min(std::max<std::size_t>(opts.initialLevels, 4), cap);
    for (;;) {
        DepthEstimate est = sparseSolveAt(model, depth, solve, res);
        ++res.depthSolves;
        if (previous_mean >= 0.0)
            rel_change =
                std::fabs(est.meanLevel - previous_mean) /
                std::max(est.meanLevel, 1e-12);
        previous_mean = est.meanLevel;
        res.levelsUsed = depth;
        res.meanLevel = est.meanLevel;
        res.tailMass = est.tailMass;
        res.levelZero = std::move(est.levelZero);
        res.phaseMarginal = std::move(est.phaseMarginal);
        res.truncationBound =
            kBoundSafety *
            ((std::isfinite(rel_change) ? rel_change : 0.0) +
             est.tailError);
        if (rel_change <= opts.relTolerance)
            break;
        if (std::isfinite(rel_change) && est.tailError <= opts.relTolerance)
            break;
        if (depth >= cap) {
            res.converged = false;
            break;
        }
        depth = std::min(depth * 2, cap);
    }
    return res;
}

} // namespace markov
} // namespace rsin
