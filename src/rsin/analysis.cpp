#include "analysis.hpp"

#include <bit>
#include <limits>

#include "common/error.hpp"
#include "markov/xbar_model.hpp"
#include "queueing/mm_queues.hpp"
#include "rsin/analysis_cache.hpp"

namespace rsin {

namespace {

/** Largest lumped phase space the exact chains are allowed to solve.
 *  Beyond it even the sparse path gets expensive, and the reductions
 *  plus simulation remain the fallback. */
constexpr std::size_t kNetChainPhaseLimit = 1024;

markov::NetChainParams
netChainParams(const SystemConfig &config, double lambda, double mu_n,
               double mu_s)
{
    markov::NetChainParams prm;
    prm.processors = config.inputsPerNet;
    prm.buses = config.outputsPerNet;
    prm.resources = config.resourcesPerPort;
    prm.lambda = lambda;
    prm.muN = mu_n;
    prm.muS = mu_s;
    return prm;
}

bool
isPowerOfTwo(std::size_t v)
{
    return v >= 2 && (v & (v - 1)) == 0;
}

} // namespace

double
lambdaForRho(const SystemConfig &config, double rho, double mu_n,
             double mu_s)
{
    return queueing::arrivalRateForIntensity(
        config.processors, config.totalResources(), rho, mu_n, mu_s);
}

double
rhoForLambda(const SystemConfig &config, double lambda, double mu_n,
             double mu_s)
{
    return queueing::paperTrafficIntensity(
        config.processors, config.totalResources(), lambda, mu_n, mu_s);
}

markov::SbusSolution
analyzeSbus(const SystemConfig &config, double lambda, double mu_n,
            double mu_s)
{
    config.validate();
    RSIN_REQUIRE(config.network == NetworkClass::SingleBus,
                 "analyzeSbus: not an SBUS configuration: ", config.str());
    markov::SbusParams prm;
    prm.p = config.processorsPerNet();
    prm.lambda = lambda;
    prm.muN = mu_n;
    prm.muS = mu_s;
    prm.r = config.resourcesPerPort;
    return AnalysisCache::global().solve(prm,
                                         SbusSolverKind::MatrixGeometric);
}

bool
xbarExactInRange(const SystemConfig &config)
{
    if (config.network != NetworkClass::Crossbar)
        return false;
    return markov::netChainPhaseCount(config.inputsPerNet,
                                      config.outputsPerNet,
                                      config.resourcesPerPort) <=
           kNetChainPhaseLimit;
}

bool
omegaExactInRange(const SystemConfig &config)
{
    if (config.network != NetworkClass::Omega)
        return false;
    // The topology is only defined for square power-of-two networks.
    if (config.inputsPerNet != config.outputsPerNet ||
        !isPowerOfTwo(config.inputsPerNet))
        return false;
    return markov::netChainPhaseCount(config.inputsPerNet,
                                      config.outputsPerNet,
                                      config.resourcesPerPort) <=
           kNetChainPhaseLimit;
}

double
omegaLinkConflict(std::size_t size)
{
    RSIN_REQUIRE(isPowerOfTwo(size),
                 "omegaLinkConflict: size must be a power of two >= 2, "
                 "got ", size);
    // Count the ordered pairs of paths (x, y), (x', y') with x != x'
    // and y != y' that share an internal boundary link.  With
    // k = log2 n, a boundary-s link carries the 2^s x 2^(k-s) paths
    // between one input block and one output block, so
    // n^2 (2^s - 1)(2^(k-s) - 1) such pairs share a boundary-s link.
    // Two banyan paths that share links share a contiguous run of
    // boundaries, so subtracting the n^2 (2^(s-1) - 1)(2^(k-s) - 1)
    // pairs that share both s - 1 and s counts each pair once:
    // n^2 2^(s-1) (2^(k-s) - 1) per boundary, which sums over
    // s = 1..k-1 to n^2 ((k - 1) n/2 - (n/2 - 1)).  The factor n^2
    // cancels against the n^2 (n - 1)^2 pairs.
    const std::size_t k = static_cast<std::size_t>(std::countr_zero(size));
    const std::size_t half = size / 2;
    const double conflicts =
        static_cast<double>((k - 1) * half - (half - 1));
    const double others = static_cast<double>(size - 1);
    return conflicts / (others * others);
}

markov::SbusSolution
xbarExact(const SystemConfig &config, double lambda, double mu_n,
          double mu_s)
{
    config.validate();
    RSIN_REQUIRE(xbarExactInRange(config),
                 "xbarExact: configuration out of range: ",
                 config.str());
    return AnalysisCache::global().solveNetwork(
        netChainParams(config, lambda, mu_n, mu_s),
        SbusSolverKind::XbarLdQbd);
}

markov::SbusSolution
omegaExact(const SystemConfig &config, double lambda, double mu_n,
           double mu_s)
{
    config.validate();
    RSIN_REQUIRE(omegaExactInRange(config),
                 "omegaExact: configuration out of range: ",
                 config.str());
    markov::NetChainParams prm =
        netChainParams(config, lambda, mu_n, mu_s);
    prm.linkConflict = omegaLinkConflict(config.inputsPerNet);
    return AnalysisCache::global().solveNetwork(
        prm, SbusSolverKind::OmegaLdQbd);
}

markov::SbusSolution
xbarLightLoad(const SystemConfig &config, double lambda, double mu_n,
              double mu_s)
{
    config.validate();
    RSIN_REQUIRE(config.network == NetworkClass::Crossbar,
                 "xbarLightLoad: not an XBAR configuration: ",
                 config.str());
    markov::SbusParams prm;
    prm.p = 1;
    prm.lambda = lambda;
    prm.muN = mu_n;
    prm.muS = mu_s;
    prm.r = config.outputsPerNet * config.resourcesPerPort;
    return AnalysisCache::global().solve(prm,
                                         SbusSolverKind::MatrixGeometric);
}

markov::SbusSolution
xbarHeavyLoad(const SystemConfig &config, double lambda, double mu_n,
              double mu_s)
{
    config.validate();
    RSIN_REQUIRE(config.network == NetworkClass::Crossbar,
                 "xbarHeavyLoad: not an XBAR configuration: ",
                 config.str());
    const std::size_t j = config.inputsPerNet;
    const std::size_t k = config.outputsPerNet;
    markov::SbusParams prm;
    prm.lambda = lambda;
    prm.muN = mu_n;
    prm.muS = mu_s;
    if (j >= k) {
        RSIN_REQUIRE(j % k == 0,
                     "xbarHeavyLoad: j/k must be integral, got ",
                     config.str());
        prm.p = j / k;
        prm.r = config.resourcesPerPort;
    } else {
        RSIN_REQUIRE(k % j == 0,
                     "xbarHeavyLoad: k/j must be integral, got ",
                     config.str());
        prm.p = 1;
        prm.r = k * config.resourcesPerPort / j;
    }
    return AnalysisCache::global().solve(prm,
                                         SbusSolverKind::MatrixGeometric);
}

markov::SbusSolution
multistageLightLoad(const SystemConfig &config, double lambda,
                    double mu_n, double mu_s)
{
    config.validate();
    RSIN_REQUIRE(config.network == NetworkClass::Omega ||
                     config.network == NetworkClass::Cube,
                 "multistageLightLoad: not a multistage configuration: ",
                 config.str());
    markov::SbusParams prm;
    prm.p = 1;
    prm.lambda = lambda;
    prm.muN = mu_n;
    prm.muS = mu_s;
    prm.r = config.outputsPerNet * config.resourcesPerPort;
    return AnalysisCache::global().solve(prm,
                                         SbusSolverKind::MatrixGeometric);
}

markov::SbusSolution
privateBusUnlimited(const SystemConfig &config, double lambda, double mu_n,
                    double mu_s)
{
    config.validate();
    const std::size_t per = config.processorsPerNet();
    const auto mm1 = queueing::mm1(static_cast<double>(per) * lambda, mu_n);
    markov::SbusSolution sol;
    sol.stable = mm1.stable;
    if (!mm1.stable) {
        sol.meanQueueLength = std::numeric_limits<double>::infinity();
        sol.queueingDelay = sol.meanQueueLength;
        sol.normalizedDelay = sol.meanQueueLength;
        return sol;
    }
    sol.meanQueueLength = mm1.meanQueue;
    sol.queueingDelay = mm1.meanWait;
    sol.normalizedDelay = mm1.meanWait * mu_s;
    sol.busUtilization = mm1.utilization;
    sol.resourceUtilization = 0.0; // unbounded pool: utilization -> 0
    sol.probEmptySystem = 1.0 - mm1.utilization;
    return sol;
}

} // namespace rsin
