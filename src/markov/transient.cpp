#include "transient.hpp"

#include <cmath>

#include "common/error.hpp"

namespace rsin {
namespace markov {

namespace {

/** Truncation tolerance on the Poisson tail mass. */
constexpr double kTailTolerance = 1e-12;
/** Hard cap on the number of jump terms. */
constexpr std::size_t kMaxTerms = 1000000;

} // namespace

la::Vector
transientDistribution(const Ctmc &chain, const la::Vector &initial,
                      double t)
{
    const std::size_t n = chain.states();
    RSIN_REQUIRE(initial.size() == n,
                 "transientDistribution: initial size mismatch");
    RSIN_REQUIRE(t >= 0.0, "transientDistribution: negative time");
    {
        double sum = 0.0;
        for (double v : initial) {
            RSIN_REQUIRE(v >= -1e-12,
                         "transientDistribution: negative probability");
            sum += v;
        }
        RSIN_REQUIRE(std::fabs(sum - 1.0) < 1e-9,
                     "transientDistribution: initial must sum to 1");
    }
    if (t == 0.0)
        return initial;

    // Uniformization rate: any Lambda >= max exit rate works.
    double lambda = 0.0;
    for (std::size_t s = 0; s < n; ++s)
        lambda = std::max(lambda, chain.exitRate(s));
    if (lambda == 0.0)
        return initial; // no transitions at all
    lambda *= 1.02; // headroom so P has positive diagonal

    // One step of the uniformized chain: w = v * P, with
    // P = I + Q/Lambda applied through the sparse transition lists.
    auto step = [&](const la::Vector &v) {
        la::Vector w(n, 0.0);
        for (std::size_t s = 0; s < n; ++s) {
            const double mass = v[s];
            if (mass == 0.0)
                continue;
            double stay = 1.0;
            for (const auto &tr : chain.outgoing(s)) {
                const double p = tr.rate / lambda;
                w[tr.to] += mass * p;
                stay -= p;
            }
            w[s] += mass * stay;
        }
        return w;
    };

    // Accumulate Poisson(lambda*t)-weighted powers.  Weights are
    // generated iteratively; underflow before the mode is handled by
    // scaling from the log-domain.
    const double lt = lambda * t;
    la::Vector vk = initial;      // initial * P^k
    la::Vector acc(n, 0.0);
    double log_weight = -lt;      // log of Poisson pmf at k = 0
    double covered = 0.0;
    for (std::size_t k = 0; k < kMaxTerms; ++k) {
        const double weight = std::exp(log_weight);
        if (weight > 0.0) {
            for (std::size_t s = 0; s < n; ++s)
                acc[s] += weight * vk[s];
            covered += weight;
        }
        if (covered >= 1.0 - kTailTolerance)
            break;
        vk = step(vk);
        log_weight += std::log(lt) - std::log(static_cast<double>(k + 1));
    }
    RSIN_REQUIRE(covered >= 1.0 - 1e-6,
                 "transientDistribution: Poisson series did not cover "
                 "the mass; t too large for the term cap");
    // Renormalize the truncated series.
    for (auto &v : acc)
        v /= covered;
    return acc;
}

double
totalVariation(const la::Vector &a, const la::Vector &b)
{
    RSIN_REQUIRE(a.size() == b.size(), "totalVariation: size mismatch");
    double sum = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i)
        sum += std::fabs(a[i] - b[i]);
    return 0.5 * sum;
}

double
timeToConverge(const Ctmc &chain, const la::Vector &initial,
               const la::Vector &target, double epsilon, double t0,
               std::size_t max_doublings)
{
    RSIN_REQUIRE(epsilon > 0.0, "timeToConverge: epsilon must be > 0");
    double t = t0;
    for (std::size_t i = 0; i < max_doublings; ++i) {
        const la::Vector p = transientDistribution(chain, initial, t);
        if (totalVariation(p, target) <= epsilon)
            return t;
        t *= 2.0;
    }
    RSIN_FATAL("timeToConverge: no convergence within ", t, " time units");
}

} // namespace markov
} // namespace rsin
