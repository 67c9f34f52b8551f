/**
 * @file
 * Reproduces paper Table II: the network class to use as a function of
 * relative network/resource cost and of mu_s/mu_n, from the advisor,
 * plus the delay evidence behind each row gathered from the analytic
 * and simulation models.
 */

#include <iostream>

#include "common/table.hpp"
#include "common/text.hpp"
#include "figure_common.hpp"
#include "rsin/advisor.hpp"

int
main(int argc, char **argv)
{
    rsin::requireNoArgs(argc, argv);
    using namespace rsin;
    using namespace rsin::bench;

    TextTable table("Table II -- selection of suitable RSIN");
    table.header({"relative costs", "mu_s/mu_n", "advisor output"});
    struct Row { CostRegime regime; const char *label; };
    const Row regimes[] = {
        {CostRegime::NetworkMuchCheaper, "COST_net << COST_res"},
        {CostRegime::Comparable, "COST_net ~= COST_res"},
        {CostRegime::NetworkMuchCostlier, "COST_net >> COST_res"},
    };
    for (const auto &row : regimes) {
        for (double ratio : {0.1, 10.0}) {
            const auto rec = selectNetwork(row.regime, ratio);
            std::string advice = networkClassName(rec.network);
            if (rec.manySmallNetworks)
                advice = "many small " + advice + " networks";
            else
                advice = "single " + advice + " network";
            if (rec.extraResources)
                advice += " + larger resource pool";
            table.row({row.label, formatf("%.1f", ratio), advice});
            if (row.regime == CostRegime::NetworkMuchCostlier)
                break; // one row regardless of ratio, as in the paper
        }
    }
    table.print(std::cout);

    // Delay evidence: the comparable-cost row (Section VI example).
    std::cout << "\nEvidence for the comparable-cost row "
                 "(normalized delay at rho = 0.6, ratio 0.1):\n";
    const double mu_n = 1.0, mu_s = 0.1, rho = 0.6;
    const double lambda = lambdaAt(rho, mu_n, mu_s);
    TextTable ev;
    ev.header({"system", "normalized delay", "network gates"});
    {
        const auto cfg = SystemConfig::parse("16/16x1x1 SBUS/3");
        const auto sol = analyzeSbus(cfg, lambda, mu_n, mu_s);
        ev.row({cfg.str(), formatf("%.4f", sol.normalizedDelay),
                formatf("%zu", networkGateCost(cfg))});
    }
    for (const char *text : {"16/4x4x4 OMEGA/2", "16/4x4x4 XBAR/2"}) {
        const auto cfg = SystemConfig::parse(text);
        workload::WorkloadParams params;
        params.lambda = lambda;
        params.muN = mu_n;
        params.muS = mu_s;
        SimOptions opts;
        opts.seed = 7;
        opts.measureTasks = 20000;
        const auto res = simulateReplicated(cfg, params, opts, 3);
        ev.row({cfg.str(),
                obs::displayValue(res, res.normalizedDelay, "%.4f"),
                formatf("%zu", networkGateCost(cfg))});
    }
    ev.print(std::cout);
    return 0;
}
