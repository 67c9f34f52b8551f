#pragma once

/**
 * @file
 * Level-dependent quasi-birth-death chains with certified truncation.
 *
 * The exact crossbar/Omega chains (xbar_model.hpp, omega_model.hpp)
 * are QBD processes whose blocks vary with the level: the probability
 * that a completion lets a *queued* task seize a bus depends on how
 * many tasks are queued.  The blocks converge to limiting blocks as
 * the level grows, and the solver uses those limiting blocks twice:
 * for the stability verdict (the drift of the limiting chain) and for
 * its preconditioner.
 *
 * Every chain is truncated at a depth q (reflecting at the top level),
 * assembled as one sparse transposed generator whose first balance
 * equation is replaced by the normalization row, and its stationary
 * vector solved by restarted GMRES (la/sparse.hpp), preconditioned by
 * a symmetric two-level cycle: block-Jacobi smoothing over just two
 * sparse LU factors (level 0's A1 as it is -- the normalization row
 * stays in the operator -- and the limiting A1 block shared by every
 * deeper level, swept as one multi-right-hand-side solve), a Galerkin
 * coarse correction over the level aggregates (restriction sums each
 * level, prolongation spreads a level's mass by the limiting phase
 * marginal; the (depth+1)-square coarse system is tridiagonal below
 * its normalization row and is factored once per depth), then a
 * second smoothing.  The coarse step moves mass between levels, which
 * block Jacobi alone cannot, so the iteration count stays low as the
 * load nears capacity.  The network chains enumerate their
 * level-independent transitions once and re-weight them per level, so
 * the blocks are cheap to rebuild at every depth.
 *
 * A depth-doubling loop grows q until the delay estimate stops moving
 * and returns a *certified truncation bound*: a safety-factored
 * a-posteriori bound combining the observed depth-doubling change with
 * the extrapolated geometric tail mass beyond q.  tests/test_ldqbd.cpp
 * validates the certificate against observed truncation error across
 * a parameter sweep, and the solver against a dense solve of the same
 * truncated generator.
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
};

/**
 * The solver that handled a chain.  There is one, SparseKrylov; the
 * enum and LdQbdResult::backend remain only because the repo benchmark
 * (e2ebench/workloads.cpp) still tells DenseCensored cells from sparse
 * ones, and go when the benchmark drops that comparison.
 */
enum class LdQbdBackend
{
    DenseCensored, ///< retired; no solve reports it
    SparseKrylov,  ///< truncated sparse chain via two-level-precond GMRES
};

/** Tuning knobs for solveStationary(). */
struct LdQbdOptions
{
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
    LdQbdBackend backend = LdQbdBackend::SparseKrylov; ///< always
    std::size_t levelsUsed = 0; ///< truncation depth q solved
    double meanLevel = 0.0;     ///< E[l] over the truncated chain
    la::Vector levelZero;       ///< pi at level 0, by phase
    /** Phase marginal sum_{l <= q} pi_l of the truncated chain. */
    la::Vector phaseMarginal;
    /** Stationary mass beyond the solved levels, extrapolated from the
     *  mass decay at the truncation edge. */
    double tailMass = 0.0;
    /** Certified relative truncation bound on meanLevel (and hence on
     *  the queueing delay computed from it). */
    double truncationBound = 0.0;

    // Deterministic work counters: equal on every run of the same solve.
    /** Level-block LU factorizations: two per solve, the smoother's
     *  level-0 and limiting blocks, at any depth. */
    std::size_t factorizations = 0;
    /** GMRES inner iterations summed over all depths. */
    std::size_t gmresIterations = 0;
    /** Truncation depths solved (one per doubling, the first included). */
    std::size_t depthSolves = 0;
};

/**
 * Solve a level-dependent QBD chain for its stationary distribution on
 * the truncated sparse Krylov path (see file comment).
 */
LdQbdResult solveStationary(const LdQbdModel &model,
                            const LdQbdOptions &opts = {});

} // namespace markov
} // namespace rsin
