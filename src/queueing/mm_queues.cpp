#include "mm_queues.hpp"

#include <cmath>
#include <limits>
#include <vector>

#include "common/error.hpp"

namespace rsin {
namespace queueing {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

QueueMetrics
unstableMetrics(double util)
{
    QueueMetrics m;
    m.utilization = util;
    m.meanNumber = kInf;
    m.meanQueue = kInf;
    m.meanResponse = kInf;
    m.meanWait = kInf;
    m.stable = false;
    return m;
}

} // namespace

QueueMetrics
mm1(double lambda, double mu)
{
    RSIN_REQUIRE(lambda >= 0.0 && mu > 0.0, "mm1: bad rates");
    const double rho = lambda / mu;
    if (rho >= 1.0)
        return unstableMetrics(rho);
    QueueMetrics m;
    m.utilization = rho;
    m.meanNumber = rho / (1.0 - rho);
    m.meanQueue = rho * rho / (1.0 - rho);
    m.meanResponse = 1.0 / (mu - lambda);
    m.meanWait = m.meanResponse - 1.0 / mu;
    return m;
}

double
erlangC(double lambda, double mu, std::size_t c)
{
    RSIN_REQUIRE(lambda >= 0.0 && mu > 0.0 && c >= 1, "erlangC: bad args");
    const double a = lambda / mu; // offered load in Erlangs
    if (a >= static_cast<double>(c))
        return 1.0;
    // Stable evaluation from the Erlang-B recurrence:
    //   C = B / (1 - rho (1 - B)).
    const double b = erlangB(a, c);
    const double rho = a / static_cast<double>(c);
    return b / (1.0 - rho * (1.0 - b));
}

double
erlangB(double offered_load, std::size_t c)
{
    RSIN_REQUIRE(offered_load >= 0.0, "erlangB: negative load");
    double b = 1.0;
    for (std::size_t k = 1; k <= c; ++k)
        b = offered_load * b / (static_cast<double>(k) + offered_load * b);
    return b;
}

QueueMetrics
mmc(double lambda, double mu, std::size_t c)
{
    RSIN_REQUIRE(lambda >= 0.0 && mu > 0.0 && c >= 1, "mmc: bad args");
    const double a = lambda / mu;
    const double rho = a / static_cast<double>(c);
    if (rho >= 1.0)
        return unstableMetrics(rho);
    const double pw = erlangC(lambda, mu, c);
    QueueMetrics m;
    m.utilization = rho;
    m.meanQueue = pw * rho / (1.0 - rho);
    m.meanWait = lambda > 0.0 ? m.meanQueue / lambda : 0.0;
    m.meanResponse = m.meanWait + 1.0 / mu;
    m.meanNumber = m.meanQueue + a;
    return m;
}

FiniteQueueMetrics
mmcK(double lambda, double mu, std::size_t c, std::size_t k)
{
    RSIN_REQUIRE(lambda >= 0.0 && mu > 0.0 && c >= 1, "mmcK: bad args");
    RSIN_REQUIRE(k >= c, "mmcK: capacity K must be >= servers c");
    const double a = lambda / mu;
    // Unnormalized stationary probabilities of the birth-death chain,
    // accumulated in a numerically stable multiplicative form.
    std::vector<double> p(k + 1);
    p[0] = 1.0;
    for (std::size_t n = 1; n <= k; ++n) {
        const double servers =
            static_cast<double>(std::min(n, c));
        p[n] = p[n - 1] * a / servers;
    }
    double z = 0.0;
    for (double v : p)
        z += v;
    for (auto &v : p)
        v /= z;

    FiniteQueueMetrics out;
    out.blockingProbability = p[k];
    out.throughput = lambda * (1.0 - p[k]);
    double mean_n = 0.0;
    double mean_q = 0.0;
    double busy = 0.0;
    for (std::size_t n = 0; n <= k; ++n) {
        mean_n += static_cast<double>(n) * p[n];
        if (n > c)
            mean_q += static_cast<double>(n - c) * p[n];
        busy += static_cast<double>(std::min(n, c)) * p[n];
    }
    out.base.meanNumber = mean_n;
    out.base.meanQueue = mean_q;
    out.base.utilization = busy / static_cast<double>(c);
    if (out.throughput > 0.0) {
        out.base.meanResponse = mean_n / out.throughput;  // Little's law
        out.base.meanWait = mean_q / out.throughput;
    }
    return out;
}

double
paperTrafficIntensity(std::size_t p, std::size_t m, double lambda,
                      double mu_n, double mu_s)
{
    RSIN_REQUIRE(p >= 1 && m >= 1, "trafficIntensity: p, m must be >= 1");
    RSIN_REQUIRE(mu_n > 0.0 && mu_s > 0.0, "trafficIntensity: bad rates");
    const double pd = static_cast<double>(p);
    const double md = static_cast<double>(m);
    return pd * lambda * (1.0 / (pd * mu_n) + 1.0 / (md * mu_s));
}

double
arrivalRateForIntensity(std::size_t p, std::size_t m, double rho,
                        double mu_n, double mu_s)
{
    RSIN_REQUIRE(rho >= 0.0, "arrivalRateForIntensity: negative rho");
    const double pd = static_cast<double>(p);
    const double md = static_cast<double>(m);
    const double denom = pd * (1.0 / (pd * mu_n) + 1.0 / (md * mu_s));
    return rho / denom;
}

} // namespace queueing
} // namespace rsin
