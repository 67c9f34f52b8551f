#pragma once

/**
 * @file
 * Transient analysis of finite CTMCs by uniformization (Jensen's
 * method): p(t) = sum_k Poisson(Lambda*t, k) * p0 * P^k, where
 * P = I + Q/Lambda is the uniformized jump chain.
 *
 * The paper's simulations discard a warm-up period before measuring;
 * uniformization quantifies how long the SBUS chain actually takes to
 * approach its stationary distribution, turning the warm-up length from
 * folklore into a computed quantity (used by the ablation benches and
 * validated against the stationary solvers in the tests).
 */

#include <cstddef>

// rsin-lint: allow(R6): markov builds on the dense LA kernels; both are rank-1 analytic layers and la never includes markov back
#include "la/matrix.hpp"
#include "markov/ctmc.hpp"

namespace rsin {
namespace markov {

/**
 * Distribution at time @p t starting from @p initial (must sum to 1).
 * The Poisson series stops once it covers all but 1e-12 of the mass,
 * and after at most a million jump terms.
 */
la::Vector transientDistribution(const Ctmc &chain,
                                 const la::Vector &initial, double t);

/**
 * Total-variation distance between @p a and @p b:
 * 0.5 * sum |a_i - b_i|; the standard convergence metric.
 */
double totalVariation(const la::Vector &a, const la::Vector &b);

/**
 * Smallest time t (searched over @p step doublings of @p t0) at which
 * the chain started from @p initial is within @p epsilon total
 * variation of @p target.  Returns the first probe time that
 * satisfies the bound (an upper bound on the mixing time).
 */
double timeToConverge(const Ctmc &chain, const la::Vector &initial,
                      const la::Vector &target, double epsilon,
                      double t0 = 1.0, std::size_t max_doublings = 40);

} // namespace markov
} // namespace rsin
