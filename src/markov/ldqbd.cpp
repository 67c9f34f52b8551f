#include "ldqbd.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "markov/qbd.hpp"

namespace rsin {
namespace markov {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/** Auto dispatch: the dense censored path up to this block size. */
constexpr std::size_t kDenseBlockLimit = 192;
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

/** One level's generator blocks, as LdQbdModel::levelBlocks emits
 *  them. */
struct LevelBlocks
{
    la::Triplets a0, a1, a2;
};

/** The limiting (level -> infinity) chain of a model. */
struct LimitChain
{
    LevelBlocks blocks;
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
    LevelBlocks &b = lim.blocks;
    model.limitBlocks(b.a0, b.a1, b.a2);
    {
        // (A0 + A1) + A2, summed in place with one densified addend
        // live at a time; the sum is then factored in place.
        la::Matrix generator = densify(b.a0, n);
        generator += densify(b.a1, n);
        generator += densify(b.a2, n);
        lim.xi = la::stationaryFromGenerator(std::move(generator));
    }
    la::Vector up(n, 0.0), down(n, 0.0);
    for (const auto &e : b.a0)
        up[e.row] += e.value;
    for (const auto &e : b.a2)
        down[e.row] += e.value;
    const double drift_up = la::dot(lim.xi, up);
    const double drift_down = la::dot(lim.xi, down);
    lim.stable = drift_up < drift_down * (1.0 - 1e-12);
    return lim;
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
denseTail(const LevelBlocks &limit, std::size_t n)
{
    const la::Matrix a0_lim = densify(limit.a0, n);
    const la::Matrix a1_lim = densify(limit.a1, n);
    const la::Matrix a2_lim = densify(limit.a2, n);

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
 * closed-form geometric tail moments.  @p levels holds the blocks of
 * the levels built so far; the solve extends it to level L, so each
 * level is built once per solve, not once per depth.
 */
DepthEstimate
denseSolveAt(const LdQbdModel &model, const DenseTail &tail,
             std::vector<LevelBlocks> &levels, std::size_t depth)
{
    const std::size_t n = model.phases();
    while (levels.size() <= depth) {
        LevelBlocks &b = levels.emplace_back();
        model.levelBlocks(levels.size() - 1, b.a0, b.a1, b.a2);
    }

    // Backward sweep: S_L = A1_lim + A0_lim G;
    // S_l = A1(l) + A0(l) [(-S_{l+1})^{-1} A2(l+1)], with A0(l)
    // applied as the sparse matrix it is (diagonal in the network
    // chains) instead of by a dense product.
    std::vector<std::unique_ptr<la::LuFactors>> factors(depth + 1);
    la::Matrix s = tail.censoredTop;
    for (std::size_t l = depth; l-- > 0;) {
        factors[l + 1] = std::make_unique<la::LuFactors>(s * -1.0);
        const la::Matrix down =
            factors[l + 1]->solveMatrix(densify(levels[l + 1].a2, n));
        s = densify(levels[l].a1, n);
        for (const la::Triplet &e : levels[l].a0) {
            double *row = s.data() + e.row * n;
            const double *from = down.data() + e.col * n;
            for (std::size_t c = 0; c < n; ++c)
                row[c] += e.value * from[c];
        }
    }

    // Forward pass: pi_0 from the fully censored boundary generator,
    // then pi_{l+1} = pi_l A0(l) (-S_{l+1})^{-1}.
    std::vector<la::Vector> pis(depth + 1);
    pis[0] = la::stationaryFromGenerator(std::move(s));
    for (std::size_t l = 0; l < depth; ++l) {
        la::Vector up(n, 0.0);
        for (const la::Triplet &e : levels[l].a0)
            up[e.col] += pis[l][e.row] * e.value;
        pis[l + 1] = factors[l + 1]->solveTransposed(up);
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

/** A1 of one level transposed, as compressed LU factors; level 0 has
 *  its first row replaced by the normalization row. */
la::CompressedLu
factorTransposed(const la::Triplets &a1, std::size_t n, bool boundary)
{
    la::Matrix block(n, n, 0.0);
    for (const auto &e : a1)
        block(e.col, e.row) += e.value;
    if (boundary)
        for (std::size_t c = 0; c < n; ++c)
            block(0, c) = 1.0;
    return la::CompressedLu(std::move(block));
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
    /** The smoother's two factors: level 0 (normalization row in
     *  place) and the limiting A1, shared by every level >= 1. */
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
    LimitChain limit = limitChain(model);
    if (!limit.stable)
        return unstableResult(backend);

    LdQbdResult res;
    res.backend = backend;
    if (dense) {
        const std::optional<DenseTail> tail = denseTail(limit.blocks, n);
        if (!tail)
            return unstableResult(backend);
        // Memory-bounded depth cap: one n x n LU per level is stored.
        const std::size_t mem_levels = std::max<std::size_t>(
            64, 30'000'000 / std::max<std::size_t>(n * n, 1));
        std::vector<LevelBlocks> levels;
        doubleDepth(opts, 2, std::min(opts.maxLevels, mem_levels), res,
                    [&](std::size_t depth) {
                        // One LU of -S_l per level above the boundary,
                        // one of S_0.
                        res.factorizations += depth + 1;
                        return denseSolveAt(model, *tail, levels, depth);
                    });
        return res;
    }

    // Keep the assembled system within a sane footprint.
    const std::size_t state_cap = 1'500'000;
    const std::size_t cap = std::min(
        opts.maxLevels,
        std::max<std::size_t>(opts.initialLevels,
                              state_cap / std::max<std::size_t>(n, 1)));
    LevelBlocks zero;
    model.levelBlocks(0, zero.a0, zero.a1, zero.a2);
    SparseSolve solve{factorTransposed(zero.a1, n, true),
                      factorTransposed(limit.blocks.a1, n, false),
                      std::move(limit.xi), {}};
    res.factorizations = 2;
    doubleDepth(opts, 4, cap, res, [&](std::size_t depth) {
        return sparseSolveAt(model, depth, solve, res);
    });
    return res;
}

} // namespace markov
} // namespace rsin
