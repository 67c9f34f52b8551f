/**
 * @file
 * The paper's open problem (Conclusion): "the problem on the number
 * and placement of each type of resources in the network is still
 * open."  This bench runs the Section V multiple-resource-type
 * extension with two placements of 4 types over a 16x16 Omega
 * network's 32 resources -- spread round-robin across all ports versus
 * clustered into contiguous port bands -- and measures the delay cost
 * of clustering (which concentrates each type behind fewer subtrees,
 * creating link hot-spots).
 */

#include "figure_common.hpp"

using namespace rsin;
using namespace rsin::bench;

int
main(int argc, char **argv)
{
    rsin::requireNoArgs(argc, argv);
    const double mu_n = 1.0;
    for (double mu_s : {0.1, 1.0}) {
        TextTable table(formatf(
            "Typed-resource placement (4 types, 16/1x16x16 OMEGA/2), "
            "mu_s/mu_n = %.1f",
            mu_s));
        table.header({"rho", "round-robin (mu_s*d)",
                      "clustered (mu_s*d)", "cluster penalty"});
        for (double rho : {0.2, 0.4, 0.6, 0.8}) {
            workload::WorkloadParams params;
            params.muN = mu_n;
            params.muS = mu_s;
            params.resourceTypes = 4;
            params.lambda = lambdaAt(rho, mu_n, mu_s);
            SimOptions opts;
            opts.seed = 616;
            opts.warmupTasks = 3000;
            opts.measureTasks = 30000;

            ModelOptions spread, clustered;
            spread.omega.placement = TypePlacement::RoundRobin;
            clustered.omega.placement = TypePlacement::Clustered;
            const auto a = simulateReplicated(
                SystemConfig::parse("16/1x16x16 OMEGA/2"), params, opts,
                3, spread);
            const auto b = simulateReplicated(
                SystemConfig::parse("16/1x16x16 OMEGA/2"), params, opts,
                3, clustered);
            if (a.saturated || b.saturated) {
                table.row({formatf("%.1f", rho),
                           a.saturated ? "saturated"
                                       : formatf("%.4f",
                                                 a.normalizedDelay),
                           b.saturated ? "saturated"
                                       : formatf("%.4f",
                                                 b.normalizedDelay),
                           "-"});
                continue;
            }
            table.row({formatf("%.1f", rho),
                       formatf("%.4f", a.normalizedDelay),
                       formatf("%.4f", b.normalizedDelay),
                       formatf("%.2fx",
                               b.normalizedDelay /
                                   std::max(a.normalizedDelay, 1e-9))});
        }
        table.print(std::cout);
        std::cout << "\n";
    }
    std::cout <<
        "Spreading each type across all output ports keeps every\n"
        "request's reachable set large (any subtree leads to a\n"
        "matching resource); clustering funnels each type's traffic\n"
        "into one subtree of the blocking network.\n";
    return 0;
}
