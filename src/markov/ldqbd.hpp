#pragma once

/**
 * @file
 * Level-dependent quasi-birth-death chains with certified truncation.
 *
 * The exact crossbar/Omega chains (xbar_model.hpp, omega_model.hpp)
 * are QBD processes whose blocks vary with the level: the probability
 * that a completion lets a *queued* task seize a bus depends on how
 * many tasks are queued.  The dependence decays geometrically, so the
 * chain is asymptotically homogeneous, and the solver exploits that:
 *
 *  - **Dense censored path** (small blocks): the limiting blocks are
 *    solved once by Latouche-Ramaswami logarithmic reduction
 *    (markov/qbd.hpp); the infinite homogeneous tail is censored into
 *    the deepest level-dependent block as A1 + A0 G, the remaining
 *    finite level-dependent system is swept by the banded censoring
 *    recursion, and the geometric tail moments are added in closed
 *    form from R.  No truncation of the tail at all -- only the
 *    homogeneity depth L adapts.
 *
 *  - **Sparse Krylov path** (large blocks): the truncated chain is
 *    assembled as one sparse transposed generator and its stationary
 *    vector solved by restarted GMRES (la/sparse.hpp) with a
 *    block-diagonal preconditioner of compressed LU factors (one per
 *    shallow level, the deepest one shared by the whole tail and
 *    applied to it as one multi-right-hand-side sweep).  The level
 *    blocks do not depend on the depth, so each is factored once per
 *    solve.  The truncation depth q adapts.
 *
 * Both backends run through one depth-doubling loop: it grows the
 * depth until the delay estimate stops moving and returns a *certified
 * truncation bound*, a safety-factored a-posteriori bound combining
 * the observed depth-doubling change with a per-backend tail term (the
 * homogeneity gap for dense, the extrapolated geometric tail mass for
 * sparse).  tests/test_ldqbd.cpp validates the certificate against
 * observed truncation error across a parameter sweep.
 */

#include <cstddef>

// rsin-lint: allow(R6): markov builds on the dense and sparse LA kernels; both are rank-1 analytic layers and la never includes markov back
#include "la/matrix.hpp"
// rsin-lint: allow(R6): markov builds on the dense and sparse LA kernels; both are rank-1 analytic layers and la never includes markov back
#include "la/sparse.hpp"

namespace rsin {
namespace markov {

/**
 * A level-dependent QBD chain with one fixed phase space per level.
 * Level 0 is the empty-queue boundary (its A2 block must be empty);
 * blocks converge entrywise to the limiting blocks as the level grows.
 */
class LdQbdModel
{
  public:
    virtual ~LdQbdModel() = default;

    /** Number of phases (block dimension), identical at every level. */
    virtual std::size_t phases() const = 0;

    /**
     * Append the blocks of the level-@p level generator row:
     * a0 (level -> level+1), a1 (within level, including the negative
     * diagonal), a2 (level -> level-1; empty at level 0).
     */
    virtual void levelBlocks(std::size_t level, la::Triplets &a0,
                             la::Triplets &a1,
                             la::Triplets &a2) const = 0;

    /** Append the limiting (level -> infinity) homogeneous blocks. */
    virtual void limitBlocks(la::Triplets &a0, la::Triplets &a1,
                             la::Triplets &a2) const = 0;

    /**
     * Max absolute difference between any dispatch probability of the
     * level-@p level blocks and its limiting value (the homogeneity
     * gap delta(level), dimensionless, monotonically decreasing).
     */
    virtual double homogeneityGap(std::size_t level) const = 0;
};

/** Which solver backend handled (or should handle) a chain. */
enum class LdQbdBackend
{
    Auto,          ///< dense up to 192 phases, else sparse (option only)
    DenseCensored, ///< log-reduction + censored level sweep + R tail
    SparseKrylov,  ///< truncated sparse chain via block-precond GMRES
};

/** Tuning knobs for solveStationary(). */
struct LdQbdOptions
{
    LdQbdBackend backend = LdQbdBackend::Auto;
    /** Stop growing the depth once the relative delay change per
     *  doubling falls below this. */
    double relTolerance = 1e-8;
    std::size_t initialLevels = 8;
    std::size_t maxLevels = 2048;
};

/** Stationary solution of a level-dependent QBD chain. */
struct LdQbdResult
{
    bool stable = true;     ///< false: drift >= 0, delays infinite
    bool converged = true;  ///< false: depth cap hit before tolerance
    LdQbdBackend backend = LdQbdBackend::DenseCensored;
    std::size_t levelsUsed = 0; ///< level-dependent depth solved
    double meanLevel = 0.0;     ///< E[l], geometric tail included
    la::Vector levelZero;       ///< pi at level 0, by phase
    /** Phase marginal sum_l pi_l (dense: exact tail via (I-R)^{-1};
     *  sparse: truncated sum). */
    la::Vector phaseMarginal;
    /** Certified stationary mass beyond the solved levels (dense: the
     *  exactly-computed geometric tail; sparse: extrapolated bound). */
    double tailMass = 0.0;
    /** Certified relative truncation bound on meanLevel (and hence on
     *  the queueing delay computed from it). */
    double truncationBound = 0.0;

    // Deterministic work counters: equal on every run of the same solve.
    /** Level-block LU factorizations (dense: one per level of every
     *  depth swept; sparse: one per distinct preconditioner block of
     *  the whole solve). */
    std::size_t factorizations = 0;
    /** GMRES inner iterations summed over all depths (sparse only). */
    std::size_t gmresIterations = 0;
    /** Truncation depths solved (one per doubling, the first included). */
    std::size_t depthSolves = 0;
};

/**
 * Solve a level-dependent QBD chain for its stationary distribution,
 * dispatching between the dense censored path and the sparse Krylov
 * path on block size (see file comment).
 */
LdQbdResult solveStationary(const LdQbdModel &model,
                            const LdQbdOptions &opts = {});

} // namespace markov
} // namespace rsin
