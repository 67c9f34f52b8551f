#pragma once

/**
 * @file
 * Analytical evaluation of RSIN configurations (paper Sections III-IV).
 *
 * All figure sweeps share the paper's traffic-intensity normalization:
 * rho is the utilization of a hypothetical system with a single bus of
 * rate p*mu_n and a single resource of rate m*mu_s, where p is the
 * *total* processor count and m the *total* resource count of the
 * configuration (Section III's rho_s definition); delays are plotted as
 * mu_s * d.
 */

#include "markov/sbus_solvers.hpp"
#include "rsin/config.hpp"

namespace rsin {

/** Arrival rate per processor that yields traffic intensity @p rho. */
double lambdaForRho(const SystemConfig &config, double rho, double mu_n,
                    double mu_s);

/** Traffic intensity produced by per-processor rate @p lambda. */
double rhoForLambda(const SystemConfig &config, double lambda, double mu_n,
                    double mu_s);

/**
 * Exact Markov analysis of an SBUS configuration: one partition of
 * p/i processors sharing a bus with r resources (partitions are
 * independent and identical, so one suffices).
 */
markov::SbusSolution analyzeSbus(const SystemConfig &config, double lambda,
                                 double mu_n, double mu_s);

/**
 * True if the exact crossbar LD-QBD chain (markov/xbar_model.hpp) can
 * solve this configuration: a crossbar whose lumped phase space is
 * small enough for the chain solvers.
 */
bool xbarExactInRange(const SystemConfig &config);

/**
 * True if the exact Omega LD-QBD chain can solve this configuration:
 * a square power-of-two Omega network within the same phase limit.
 */
bool omegaExactInRange(const SystemConfig &config);

/**
 * Exact pairwise path-conflict probability c1 of an n x n Omega
 * network: the probability that the unique paths of two uniformly
 * random circuits (x, y) and (x', y') with x != x', y != y' share at
 * least one internal boundary link.  Counted exactly from the
 * banyan's input and output blocks in O(1); 0 for the 2x2 network,
 * which has no internal boundary.
 */
double omegaLinkConflict(std::size_t size);

/**
 * Exact analysis of a crossbar configuration via the level-dependent
 * QBD chain: every returned solution carries a certified relative
 * truncation bound on its delay (SbusSolution::truncationBound).
 * Requires xbarExactInRange().
 */
markov::SbusSolution xbarExact(const SystemConfig &config, double lambda,
                               double mu_n, double mu_s);

/**
 * Exact analysis of an Omega configuration under the reject/reroute
 * protocol, via the crossbar chain with the internal-blocking factor
 * derived from omegaLinkConflict().  Requires omegaExactInRange().
 */
markov::SbusSolution omegaExact(const SystemConfig &config, double lambda,
                                double mu_n, double mu_s);

/**
 * Light-load approximation for a crossbar (Section IV): each processor
 * behaves as if alone, seeing a private bus to all k*r resources of its
 * network.  Accurate while mu_s * d <= 1.
 */
markov::SbusSolution xbarLightLoad(const SystemConfig &config,
                                   double lambda, double mu_n,
                                   double mu_s);

/**
 * Heavy-load approximation for a crossbar (Section IV): the buses
 * partition among processors -- j/k processors per bus when j >= k, or
 * one processor with k*r/j resources when j < k.  Requires the ratio to
 * be integral, as in the paper.
 */
markov::SbusSolution xbarHeavyLoad(const SystemConfig &config,
                                   double lambda, double mu_n,
                                   double mu_s);

/**
 * Light-load reduction for a multistage network (OMEGA/CUBE): under
 * light load the network blocks rarely, so each processor behaves as
 * if privately connected to all k*r resources -- the same Section IV
 * argument as for the crossbar.  The paper evaluates multistage
 * networks by simulation only; this reduction provides the analytic
 * light-load anchor the tests validate the simulator against.
 */
markov::SbusSolution multistageLightLoad(const SystemConfig &config,
                                         double lambda, double mu_n,
                                         double mu_s);

/**
 * Closed-form M/M/1 saturation model for a private bus with unlimited
 * resources (the "infinity" curves of Figs. 4-5): normalized delay of
 * the bus queue alone.
 */
markov::SbusSolution privateBusUnlimited(const SystemConfig &config,
                                         double lambda, double mu_n,
                                         double mu_s);

} // namespace rsin
