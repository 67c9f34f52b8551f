/**
 * @file
 * Quickstart: configure a resource-sharing system in the paper's
 * notation, run it, and compare against the analytical model.
 *
 *   ./quickstart                      # default 16/1x16x16 OMEGA/2
 *   ./quickstart "16/16x1x1 SBUS/2" 0.5 1.0 0.1
 *                 ^config              ^rho ^mu_n ^mu_s
 */

#include <cstdio>
#include <iostream>
#include <string>

#include "common/args.hpp"
#include "common/error.hpp"
#include "common/text.hpp"
#include "rsin/analysis.hpp"
#include "rsin/factory.hpp"

int
main(int argc, char **argv)
{
    using namespace rsin;

    std::string config_text = "16/1x16x16 OMEGA/2";
    double rho = 0.5, mu_n = 1.0, mu_s = 0.1;
    double *const numbers[] = {&rho, &mu_n, &mu_s};
    if (argc > 5)
        exitOnBadArgs(argv[0], std::string("unexpected argument '") +
                                   argv[5] +
                                   "' (takes CONFIG RHO MU_N MU_S)");
    if (argc > 1)
        config_text = argv[1];
    for (int i = 2; i < argc; ++i) {
        const auto value = parseDouble(argv[i]);
        if (!value)
            exitOnBadArgs(argv[0], std::string("bad number '") +
                                       argv[i] + "'");
        *numbers[i - 2] = *value;
    }

    try {
        // 1. Parse the paper-notation configuration.
        const auto cfg = SystemConfig::parse(config_text);
        std::cout << "System: " << cfg.str() << "  ("
                  << cfg.processors << " processors, "
                  << cfg.totalResources() << " resources)\n";

        // 2. Build the workload: Poisson arrivals, exponential
        //    transmit/service times, at the requested traffic
        //    intensity.
        workload::WorkloadParams params;
        params.muN = mu_n;
        params.muS = mu_s;
        params.lambda = lambdaForRho(cfg, rho, mu_n, mu_s);
        std::cout << "Workload: rho = " << rho << ", mu_s/mu_n = "
                  << params.ratio() << ", lambda = " << params.lambda
                  << " tasks/processor/unit-time\n\n";

        // 3. Simulate.
        SimOptions opts;
        opts.seed = 42;
        opts.warmupTasks = 3000;
        opts.measureTasks = 50000;
        const SimResult res = simulate(cfg, params, opts);
        if (res.saturated) {
            std::cout << "The offered load saturates this system -- "
                         "queues grow without bound.\n";
            return 0;
        }
        std::printf("Simulated queueing delay d   : %.5f "
                    "(+/- %.5f at 95%%)\n",
                    res.meanDelay, res.delayHalfWidth);
        std::printf("Normalized delay (mu_s * d)  : %.5f\n",
                    res.normalizedDelay);
        std::printf("Delay tail (p95 / p99)       : %.5f / %.5f\n",
                    res.delayP95, res.delayP99);
        std::printf("Served without waiting       : %.1f%%\n",
                    100.0 * res.fractionNoWait);
        std::printf("Mean response time           : %.5f\n",
                    res.meanResponse);
        std::printf("Tasks completed              : %llu\n",
                    static_cast<unsigned long long>(res.completedTasks));

        // 4. For bus systems, cross-check against the exact Markov
        //    analysis of paper Section III.
        if (cfg.network == NetworkClass::SingleBus) {
            const auto sol =
                analyzeSbus(cfg, params.lambda, mu_n, mu_s);
            std::printf("\nAnalytical delay (Fig. 3 Markov chain): "
                        "%.5f\n",
                        sol.queueingDelay);
        }
    } catch (const FatalError &e) {
        std::cerr << e.what() << "\n";
        return 1;
    }
    return 0;
}
