#pragma once

/**
 * @file
 * Closed-form Markovian queueing models.
 *
 * These supply the degenerate-case baselines the paper leans on in
 * Section III: when transmission dominates (mu_n << mu_s, or infinitely
 * many resources) the shared bus behaves as M/M/1; when service dominates
 * and the bus is negligible it behaves as M/M/r.  They also provide the
 * saturation asymptotes drawn in Figs. 4-5.
 */

#include <cstddef>

namespace rsin {
namespace queueing {

/** Results common to all the closed-form models below. */
struct QueueMetrics
{
    double utilization = 0.0;  ///< server utilization (rho per server)
    double meanNumber = 0.0;   ///< E[N], mean number in system
    double meanQueue = 0.0;    ///< E[Nq], mean number waiting
    double meanResponse = 0.0; ///< E[T], mean time in system
    double meanWait = 0.0;     ///< E[W], mean waiting time before service
    bool stable = true;        ///< false when the queue is unstable
};

/**
 * M/M/1 queue.
 * @param lambda arrival rate; @param mu service rate.
 */
QueueMetrics mm1(double lambda, double mu);

/**
 * M/M/c queue (Erlang-C delay formula).
 * @param lambda arrival rate; @param mu per-server service rate;
 * @param c number of servers.
 */
QueueMetrics mmc(double lambda, double mu, std::size_t c);

/**
 * Erlang-C probability that an arriving customer must wait in M/M/c.
 */
double erlangC(double lambda, double mu, std::size_t c);

/**
 * Erlang-B blocking probability for M/M/c/c (no waiting room), computed
 * with the numerically stable recurrence.
 */
double erlangB(double offered_load, std::size_t c);

/**
 * M/M/c/K queue (c servers, K total positions including in service).
 * Arrivals finding the system full are lost.
 */
struct FiniteQueueMetrics
{
    QueueMetrics base;
    double blockingProbability = 0.0; ///< P(arrival lost)
    double throughput = 0.0;          ///< accepted-arrival rate
};
FiniteQueueMetrics mmcK(double lambda, double mu, std::size_t c,
                        std::size_t k);

/**
 * The paper's traffic-intensity definition for a p-processor, m-resource
 * system (Section III): the utilization of a hypothetical single bus of
 * rate p*mu_n feeding a single resource of rate m*mu_s:
 *   rho = p*lambda * (1/(p*mu_n) + 1/(m*mu_s)).
 */
double paperTrafficIntensity(std::size_t p, std::size_t m, double lambda,
                             double mu_n, double mu_s);

/**
 * Invert paperTrafficIntensity: the per-processor arrival rate that
 * produces traffic intensity @p rho.
 */
double arrivalRateForIntensity(std::size_t p, std::size_t m, double rho,
                               double mu_n, double mu_s);

} // namespace queueing
} // namespace rsin
