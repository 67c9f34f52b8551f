#pragma once

/**
 * @file
 * Exact level-dependent QBD chain for the crossbar RSIN (paper
 * Section IV), with r shared resources behind each of the k buses.
 *
 * The state is lumped over bus identity: a *phase* is the count vector
 * over the 2r+1 bus classes
 *
 *   class s in [0, r-1]   -- transmitting, s resources already busy;
 *   class r + s, s in [0, r] -- idle, s resources busy;
 *
 * subject to sum(c) = k buses and t = sum of transmitting classes <= j
 * processors, and the *level* counts the queued tasks.  A task
 * transmits at rate muN (seizing one resource on completion), serves at
 * rate muS, and departing work frees resources one at a time.  Arrivals
 * come from the j processors at total rate j*lambda; an arrival at a
 * free processor self-dispatches onto an eligible (idle, free-resource)
 * bus chosen uniformly.
 *
 * The level dependence enters through the head-of-line corrections.
 * While any bus is eligible, a head at a free processor dispatches
 * immediately, so queued tasks cluster behind *transmitting*
 * processors: a transmit completion frees one processor, whose queue
 * is nonempty with probability 1 - ((t-1)/t)^l (l queued tasks spread
 * over the t previously transmitting processors).  Only when no bus
 * was eligible do heads also wait at free processors; a service
 * completion that re-opens a bus then dispatches with the
 * uniform-spread probability 1 - (t/j)^l.  Both corrections tend to
 * their 0/1 indicators as l grows, and the deviation is bounded by
 * ((j-1)/j)^l, which is what LdQbdModel::homogeneityGap reports.
 * Only these two corrections depend on the level, so the transitions
 * themselves (target phase, level-free rate, which correction
 * applies) are enumerated once per model, on the first block request,
 * and re-weighted for every level.
 *
 * With k = 1 the chain collapses exactly onto the single-bus chain of
 * sbus_model.hpp (every dispatch opportunity has t = 0), which is the
 * oracle tests/test_ldqbd.cpp checks solveXbarChain against.  The
 * blocking factor linkFactor() is 1 for the crossbar and is overridden
 * by the Omega chain (omega_model.hpp).
 */

#include <cstddef>
#include <mutex>
#include <vector>

#include "markov/ldqbd.hpp"
#include "markov/sbus_solvers.hpp"

namespace rsin {
namespace markov {

/** Parameters of an exact crossbar/Omega chain. */
struct NetChainParams
{
    std::size_t processors = 16; ///< j
    std::size_t buses = 16;      ///< k
    std::size_t resources = 1;   ///< r, resources behind each bus
    double lambda = 0.1;         ///< per-processor request rate
    double muN = 1.0;            ///< transmission completion rate
    double muS = 0.1;            ///< resource service completion rate
    /** Pairwise path-conflict probability c1 between two distinct
     *  source/destination circuits (Omega only; 0 for the crossbar). */
    double linkConflict = 0.0;
};

/**
 * Number of phases of the lumped chain: count vectors over 2r+1 bus
 * classes summing to @p buses with at most @p processors transmitting.
 * Computed combinatorially (no enumeration) and clamped, so it is safe
 * to call for parameters far beyond the solvable range.
 */
std::size_t netChainPhaseCount(std::size_t processors, std::size_t buses,
                               std::size_t resources);

/** The exact crossbar LD-QBD chain (see file comment). */
class XbarChainModel : public LdQbdModel
{
  public:
    explicit XbarChainModel(const NetChainParams &params);

    std::size_t phases() const override { return counts_.size(); }
    void levelBlocks(std::size_t level, la::Triplets &a0,
                     la::Triplets &a1, la::Triplets &a2) const override;
    void limitBlocks(la::Triplets &a0, la::Triplets &a1,
                     la::Triplets &a2) const override;
    double homogeneityGap(std::size_t level) const override;

    const NetChainParams &params() const { return params_; }

    /** Buses currently transmitting in @p phase (t). */
    std::size_t transmitting(std::size_t phase) const;
    /** Idle buses with a free resource in @p phase (e). */
    std::size_t eligible(std::size_t phase) const;
    /** Busy resources across all buses in @p phase. */
    std::size_t busyResources(std::size_t phase) const;
    /** P(an arrival self-dispatches | system in @p phase). */
    double selfDispatchProbability(std::size_t phase) const;
    /** Index of the everything-idle phase (empty system at level 0). */
    std::size_t emptyPhase() const { return emptyPhase_; }

  protected:
    /**
     * Probability that a dispatch attempt clears the interconnection
     * with @p transmitting circuits up and @p eligible target buses:
     * 1 for the crossbar; the Omega chain overrides it with the
     * reject/reroute blocking factor.
     */
    virtual double linkFactor(std::size_t transmitting,
                              std::size_t eligible) const;

  private:
    /**
     * One transition of the level-independent pattern, in the order
     * the blocks emit it.  Fixed moves carry their value in @c rate.
     * A completion's dispatch (A2) and stay (A1) moves carry the
     * level-free parts of their value; the head-of-line probability
     * @c weight (an index into the per-level weights of
     * appendBlocks()) supplies the level.
     */
    struct Move
    {
        enum Kind
        {
            FixedA0,
            FixedA1,
            Dispatch,
            Stay
        };
        std::size_t from = 0;
        std::size_t to = 0;
        Kind kind = FixedA1;
        std::size_t weight = 0;
        double rate = 0.0;
        double link = 0.0;     ///< linkFactor, 0 when no bus is eligible
        double landed = 0.0;   ///< target-class count (Dispatch)
        double eligible = 0.0; ///< eligible buses after (Dispatch)
    };

    /** The transition table, enumerated on first use (thread-safe). */
    const std::vector<Move> &pattern() const;
    std::vector<Move> enumeratePattern() const;
    void appendBlocks(bool limit, std::size_t level, la::Triplets &a0,
                      la::Triplets &a1, la::Triplets &a2) const;
    std::size_t phaseIndex(const std::vector<std::size_t> &count) const;

    NetChainParams params_;
    std::vector<std::vector<std::size_t>> counts_; ///< phase -> counts
    std::size_t emptyPhase_ = 0;
    // Built by the first levelBlocks()/limitBlocks() call, not by the
    // constructor: a model that is never solved never pays for it.
    mutable std::once_flag patternOnce_;
    mutable std::vector<Move> pattern_;
};

/**
 * Convert a chain solve into the shared analytic-solution record:
 * delays by Little's law on the queued-task level, utilizations from
 * the phase marginal, and the certified truncation bound passed
 * through.
 */
SbusSolution chainSolution(const XbarChainModel &model,
                           const LdQbdResult &result);

/** Solve the exact crossbar chain end to end. */
SbusSolution solveXbarChain(const NetChainParams &params,
                            const LdQbdOptions &opts = {});

} // namespace markov
} // namespace rsin
