#pragma once

/**
 * @file
 * Generic finite continuous-time Markov chain with sparse transitions.
 *
 * Used directly for small models and as the "direct balance equation"
 * reference solver the paper validates its staged SBUS procedure against
 * (Section III: "within four digits of accuracy in all cases").
 */

#include <cstddef>
#include <string>
#include <vector>

// rsin-lint: allow(R6): markov builds on the dense LA kernels; both are rank-1 analytic layers and la never includes markov back
#include "la/matrix.hpp"

namespace rsin {
namespace markov {

/** One outgoing transition of a CTMC state. */
struct Transition
{
    std::size_t to;
    double rate;
};

/** Sparse finite CTMC with a dense stationary-distribution solver. */
class Ctmc
{
  public:
    /** Add a state; returns its index.  @p label is for diagnostics. */
    std::size_t addState(std::string label = "");

    /** Pre-create @p n unlabeled states. */
    void reserveStates(std::size_t n);

    /** Add a transition @p from -> @p to with positive @p rate. */
    void addTransition(std::size_t from, std::size_t to, double rate);

    std::size_t states() const { return adj_.size(); }
    const std::string &label(std::size_t i) const { return labels_[i]; }
    const std::vector<Transition> &outgoing(std::size_t i) const;

    /** Total exit rate of a state. */
    double exitRate(std::size_t i) const;

    /** Dense generator matrix Q (row = from). */
    la::Matrix generator() const;

    /**
     * Stationary distribution via dense LU on the balance equations.
     * Suitable up to a few thousand states.
     */
    la::Vector stationaryDense() const;

    /**
     * Verify that @p pi satisfies global balance; returns the max-norm
     * residual of pi * Q (useful as a property-test oracle).
     */
    double balanceResidual(const la::Vector &pi) const;

  private:
    std::vector<std::vector<Transition>> adj_;
    std::vector<std::string> labels_;
};

} // namespace markov
} // namespace rsin
