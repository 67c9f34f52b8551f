/**
 * @file
 * Interactive configuration advisor built on paper Table II: give it a
 * candidate configuration and a workload ratio, and it reports the
 * gate cost, the cost regime, the recommended network class, and
 * measured/analytic delay for the candidate.
 *
 *   ./config_advisor "16/4x4x4 OMEGA/2" 0.1 2000
 *                     ^config           ^mu_s/mu_n ^gates-per-resource
 */

#include <cstdio>
#include <iostream>
#include <string>

#include "common/args.hpp"
#include "common/error.hpp"
#include "common/text.hpp"
#include "rsin/advisor.hpp"
#include "rsin/analysis.hpp"
#include "rsin/factory.hpp"

int
main(int argc, char **argv)
{
    using namespace rsin;

    std::string config_text = "16/4x4x4 OMEGA/2";
    double ratio = 0.1;
    std::size_t gates_per_resource = 2000;
    if (argc > 4)
        exitOnBadArgs(argv[0], std::string("unexpected argument '") +
                                   argv[4] +
                                   "' (takes CONFIG RATIO GATES)");
    if (argc > 1)
        config_text = argv[1];
    if (argc > 2) {
        const auto value = parseDouble(argv[2]);
        if (!value)
            exitOnBadArgs(argv[0], std::string("bad ratio '") + argv[2] +
                                       "'");
        ratio = *value;
    }
    if (argc > 3) {
        const auto value = parseLong(argv[3]);
        if (!value || *value <= 0)
            exitOnBadArgs(argv[0],
                          std::string("gates per resource must be a "
                                      "positive integer, got '") +
                              argv[3] + "'");
        gates_per_resource = static_cast<std::size_t>(*value);
    }

    try {
        const auto cfg = SystemConfig::parse(config_text);
        const auto regime = costRegime(cfg, gates_per_resource);
        const auto rec = selectNetwork(regime, ratio);

        std::cout << "Candidate system : " << cfg.str() << "\n";
        std::cout << "Network gates    : " << networkGateCost(cfg)
                  << "\n";
        std::cout << "Resource gates   : "
                  << cfg.totalResources() * gates_per_resource << "\n";
        const char *regime_name =
            regime == CostRegime::NetworkMuchCheaper
                ? "COST_net << COST_res"
                : regime == CostRegime::Comparable
                      ? "COST_net ~= COST_res"
                      : "COST_net >> COST_res";
        std::cout << "Cost regime      : " << regime_name << "\n";
        std::cout << "mu_s/mu_n        : " << ratio << "\n\n";
        std::cout << "Table II advice  : "
                  << (rec.manySmallNetworks ? "many small " : "single ")
                  << networkClassName(rec.network)
                  << (rec.extraResources ? " + larger resource pool"
                                         : "")
                  << "\n  because " << rec.rationale << "\n\n";

        // Delay of the candidate at a moderate load for context.
        const double mu_n = 1.0;
        const double mu_s = ratio;
        workload::WorkloadParams params;
        params.muN = mu_n;
        params.muS = mu_s;
        params.lambda = lambdaForRho(cfg, 0.5, mu_n, mu_s);
        if (cfg.network == NetworkClass::SingleBus) {
            const auto sol =
                analyzeSbus(cfg, params.lambda, mu_n, mu_s);
            std::printf("Candidate normalized delay at rho = 0.5 "
                        "(analytic): %.4f\n",
                        sol.normalizedDelay);
        } else {
            SimOptions opts;
            opts.seed = 33;
            opts.measureTasks = 30000;
            const auto res = simulate(cfg, params, opts);
            if (res.saturated)
                std::cout << "Candidate saturates at rho = 0.5\n";
            else
                std::printf("Candidate normalized delay at rho = 0.5 "
                            "(simulated): %.4f\n",
                            res.normalizedDelay);
        }
    } catch (const FatalError &e) {
        std::cerr << e.what() << "\n";
        return 1;
    }
    return 0;
}
