#include "ldqbd.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "markov/qbd.hpp"

namespace rsin {
namespace markov {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/** Auto dispatch: the dense censored path up to this block size. */
constexpr std::size_t kDenseBlockLimit = 192;
/** Sparse path: distinct level-block LU factorizations for the
 *  block-diagonal preconditioner (deeper levels share the last). */
constexpr std::size_t kBlockPrecondLevels = 8;
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

double
sumOf(const la::Vector &v)
{
    double s = 0.0;
    for (double x : v)
        s += x;
    return s;
}

LdQbdResult
unstableResult(LdQbdBackend backend)
{
    LdQbdResult res;
    res.stable = false;
    res.backend = backend;
    res.meanLevel = kInf;
    return res;
}

/** Mean drift of the limiting blocks: up rate minus down rate under
 *  the phase-marginal stationary distribution.  Negative = stable. */
bool
limitStable(const LdQbdModel &model)
{
    const std::size_t n = model.phases();
    la::Triplets t0, t1, t2;
    model.limitBlocks(t0, t1, t2);
    // Named, so the three dense addends are freed before the LU runs.
    const la::Matrix generator =
        densify(t0, n) + densify(t1, n) + densify(t2, n);
    const la::Vector xi = la::stationaryFromGenerator(generator);
    la::Vector up(n, 0.0), down(n, 0.0);
    for (const auto &e : t0)
        up[e.row] += e.value;
    for (const auto &e : t2)
        down[e.row] += e.value;
    const double drift_up = la::dot(xi, up);
    const double drift_down = la::dot(xi, down);
    return drift_up < drift_down * (1.0 - 1e-12);
}

/** One truncation depth's answer: all the depth loop needs from a
 *  backend. */
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

// ---------------------------------------------------------------------
// Dense censored backend.

struct DenseTail
{
    la::Matrix censoredTop; ///< A1_lim + A0_lim G
    la::Vector rTail1;      ///< R (I-R)^{-1} 1
    la::Vector rTail2;      ///< R (I-R)^{-2} 1
    std::unique_ptr<la::LuFactors> imr; ///< LU of I - R
};

/** The limiting chain's censored top block and closed-form tail
 *  moments; nullopt when logarithmic reduction does not converge. */
std::optional<DenseTail>
denseTail(const LdQbdModel &model)
{
    const std::size_t n = model.phases();
    la::Triplets t0, t1, t2;
    model.limitBlocks(t0, t1, t2);
    const la::Matrix a0_lim = densify(t0, n);
    const la::Matrix a1_lim = densify(t1, n);
    const la::Matrix a2_lim = densify(t2, n);

    const LogReductionResult lr = logReduction(a0_lim, a1_lim, a2_lim);
    if (!lr.converged)
        return std::nullopt;
    DenseTail tail;
    tail.censoredTop = a1_lim + a0_lim * lr.g;
    tail.imr = std::make_unique<la::LuFactors>(
        la::Matrix::identity(n) - lr.r);
    const la::Vector ones(n, 1.0);
    const la::Vector t1v = tail.imr->solve(ones); // (I-R)^{-1} 1
    const la::Vector t2v = tail.imr->solve(t1v);  // (I-R)^{-2} 1
    tail.rTail1 = lr.r * t1v;
    tail.rTail2 = lr.r * t2v;
    return tail;
}

/**
 * One censored solve at level-dependent depth L: banded backward
 * censoring over the level-dependent blocks with the homogeneous tail
 * folded into the top block, then a forward substitution pass and the
 * closed-form geometric tail moments.
 */
DepthEstimate
denseSolveAt(const LdQbdModel &model, const DenseTail &tail,
             std::size_t depth)
{
    const std::size_t n = model.phases();
    const auto blocksAt = [&](std::size_t level, la::Matrix &a0,
                              la::Matrix &a1, la::Matrix &a2) {
        la::Triplets b0, b1, b2;
        model.levelBlocks(level, b0, b1, b2);
        a0 = densify(b0, n);
        a1 = densify(b1, n);
        a2 = densify(b2, n);
    };

    // Backward sweep: S_L = A1_lim + A0_lim G;
    // S_l = A1(l) + A0(l) (-S_{l+1})^{-1} A2(l+1).
    std::vector<std::unique_ptr<la::LuFactors>> factors(depth + 1);
    std::vector<la::Matrix> a0_of(depth); // A0(l) for the forward pass
    la::Matrix s = tail.censoredTop;
    la::Matrix a2_hi; // A2(l+1) while computing S_l
    {
        la::Matrix a0_top, a1_top;
        blocksAt(depth, a0_top, a1_top, a2_hi);
    }
    for (std::size_t l = depth; l-- > 0;) {
        factors[l + 1] = std::make_unique<la::LuFactors>(s * -1.0);
        la::Matrix a0_lo, a1_lo, a2_lo;
        blocksAt(l, a0_lo, a1_lo, a2_lo);
        const la::Matrix mid = factors[l + 1]->rightSolve(a0_lo);
        s = a1_lo + mid * a2_hi;
        a0_of[l] = std::move(a0_lo);
        a2_hi = std::move(a2_lo);
    }

    // Forward pass: pi_0 from the fully censored boundary generator,
    // then pi_{l+1} = pi_l A0(l) (-S_{l+1})^{-1}.
    std::vector<la::Vector> pis(depth + 1);
    pis[0] = la::stationaryFromGenerator(s);
    for (std::size_t l = 0; l < depth; ++l) {
        const la::Vector v = la::leftMultiply(pis[l], a0_of[l]);
        pis[l + 1] = factors[l + 1]->solveTransposed(v);
    }

    // Geometric tail beyond L: pi_{L+m} = pi_L R^m, summed exactly.
    const la::Vector &pi_top = pis[depth];
    const double tail_mass = la::dot(pi_top, tail.rTail1);
    const double tail_mean =
        static_cast<double>(depth) * tail_mass +
        la::dot(pi_top, tail.rTail2);
    la::Vector tail_marginal = tail.imr->solveTransposed(pi_top);
    for (std::size_t p = 0; p < n; ++p)
        tail_marginal[p] -= pi_top[p];

    double norm = tail_mass;
    double mean = tail_mean;
    la::Vector marginal = tail_marginal;
    for (std::size_t l = 0; l <= depth; ++l) {
        const double mass = sumOf(pis[l]);
        norm += mass;
        mean += static_cast<double>(l) * mass;
        for (std::size_t p = 0; p < n; ++p)
            marginal[p] += pis[l][p];
    }

    DepthEstimate est;
    est.meanLevel = mean / norm;
    est.tailMass = tail_mass / norm;
    // Levels below the depth use their exact level-dependent blocks,
    // so the only modelling error is the homogeneous tail standing in
    // for the still level-dependent blocks beyond it: its block
    // entries are off by at most the homogeneity gap, and the damage
    // is confined to the tail's share of the mean.
    const double tail_mean_rel = tail_mean / std::max(mean, 1e-12);
    est.tailError = model.homogeneityGap(depth) * tail_mean_rel;
    est.levelZero = pis[0];
    for (auto &v : est.levelZero)
        v /= norm;
    est.phaseMarginal = std::move(marginal);
    for (auto &v : est.phaseMarginal)
        v /= norm;
    return est;
}

// ---------------------------------------------------------------------
// Sparse Krylov backend.

/** Build and factor the transposed diagonal block of @p level; the
 *  dense block lives only until it is compressed. */
la::CompressedLu
factorLevelBlock(const LdQbdModel &model, std::size_t level, bool top)
{
    const std::size_t n = model.phases();
    la::Triplets b0, b1, b2;
    model.levelBlocks(level, b0, b1, b2);
    la::Matrix block(n, n, 0.0);
    for (const auto &e : b1)
        block(e.col, e.row) += e.value;
    if (top)
        for (const auto &e : b0)
            block(e.col, e.row) += e.value;
    if (level == 0)
        for (std::size_t c = 0; c < n; ++c)
            block(0, c) = 1.0;
    return la::CompressedLu(std::move(block));
}

/**
 * Assemble the transposed generator of the chain truncated (reflected)
 * at level @p depth and solve its stationary vector by GMRES on the
 * normalization-patched system.  @p x carries the previous depth's
 * solution as a warm start.  @p levels holds the preconditioner's
 * level-block factors, shared by every depth of one solve: the
 * diagonal block of level l (A1(l) transposed; level 0 with its first
 * row replaced by the normalization row) does not depend on the depth,
 * so each level is factored once.  Only a top level, which folds A0
 * into its block, is factored per depth, and only while the depth is
 * below kBlockPrecondLevels.  The factorizations and GMRES iterations
 * are added to @p res.
 */
DepthEstimate
sparseSolveAt(const LdQbdModel &model, std::size_t depth, la::Vector &x,
              std::vector<la::CompressedLu> &levels, LdQbdResult &res)
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

    // Levels 0 .. distinct-1 get their own block; the deeper ones
    // share the last.  When that range reaches the top level, the top
    // block (A0 folded in) is factored for this depth alone.
    const std::size_t distinct = std::min(kBlockPrecondLevels, depth + 1);
    const std::size_t unfolded = std::min(distinct, depth);
    while (levels.size() < unfolded) {
        levels.push_back(factorLevelBlock(model, levels.size(), false));
        ++res.factorizations;
    }
    std::optional<la::CompressedLu> top;
    if (unfolded < distinct) {
        top.emplace(factorLevelBlock(model, depth, true));
        ++res.factorizations;
    }
    std::vector<const la::CompressedLu *> blocks(depth + 1);
    std::vector<std::size_t> starts(depth + 1);
    for (std::size_t l = 0; l <= depth; ++l) {
        const std::size_t own = std::min(l, distinct - 1);
        blocks[l] = own < unfolded ? &levels[own] : &*top;
        starts[l] = l * n;
    }
    const la::LinearOperator precond = la::blockDiagonalPreconditioner(
        std::move(blocks), std::move(starts), states);

    la::Vector rhs(states, 0.0);
    rhs[0] = 1.0;
    x.resize(states, 0.0);
    const la::LinearOperator op = la::asOperator(m);
    la::GmresResult gr = la::gmres(op, rhs, x, {}, &precond);
    res.gmresIterations += gr.iterations;
    if (gr.iterations == 0) {
        // Only a warm start can meet the residual target before the
        // first iteration: the padded previous-depth vector came back
        // untouched, so this depth would repeat the previous answer
        // bit for bit and certify a change of exactly 0.  Solve the
        // depth from zero instead.
        std::fill(x.begin(), x.end(), 0.0);
        gr = la::gmres(op, rhs, x, {}, &precond);
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

// ---------------------------------------------------------------------
// The depth loop both backends run through.

/**
 * Double the depth from max(initialLevels, @p first) up to @p cap until
 * the mean level stops moving, or until the tail term says the levels
 * beyond the depth cannot move it by more than the tolerance.
 * @p solve_at(depth) solves one depth and adds its work to @p res.
 */
template <class SolveAt>
void
doubleDepth(const LdQbdOptions &opts, std::size_t first, std::size_t cap,
            LdQbdResult &res, SolveAt solve_at)
{
    double previous_mean = -1.0;
    double rel_change = kInf;
    std::size_t depth =
        std::min(std::max(opts.initialLevels, first), cap);
    for (;;) {
        DepthEstimate est = solve_at(depth);
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
}

} // namespace

LdQbdResult
solveStationary(const LdQbdModel &model, const LdQbdOptions &opts)
{
    const std::size_t n = model.phases();
    const bool dense =
        opts.backend == LdQbdBackend::DenseCensored ||
        (opts.backend == LdQbdBackend::Auto && n <= kDenseBlockLimit);
    const LdQbdBackend backend =
        dense ? LdQbdBackend::DenseCensored : LdQbdBackend::SparseKrylov;
    if (!limitStable(model))
        return unstableResult(backend);

    LdQbdResult res;
    res.backend = backend;
    if (dense) {
        const std::optional<DenseTail> tail = denseTail(model);
        if (!tail)
            return unstableResult(backend);
        // Memory-bounded depth cap: one n x n LU per level is stored.
        const std::size_t mem_levels = std::max<std::size_t>(
            64, 30'000'000 / std::max<std::size_t>(n * n, 1));
        doubleDepth(opts, 2, std::min(opts.maxLevels, mem_levels), res,
                    [&](std::size_t depth) {
                        // One LU of -S_l per level above the boundary,
                        // one of S_0.
                        res.factorizations += depth + 1;
                        return denseSolveAt(model, *tail, depth);
                    });
        return res;
    }

    // Keep the assembled system within a sane footprint.
    const std::size_t state_cap = 1'500'000;
    const std::size_t cap = std::min(
        opts.maxLevels,
        std::max<std::size_t>(opts.initialLevels,
                              state_cap / std::max<std::size_t>(n, 1)));
    la::Vector x;
    std::vector<la::CompressedLu> levels;
    doubleDepth(opts, 4, cap, res, [&](std::size_t depth) {
        return sparseSolveAt(model, depth, x, levels, res);
    });
    return res;
}

} // namespace markov
} // namespace rsin
