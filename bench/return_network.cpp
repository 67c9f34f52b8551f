/**
 * @file
 * Extension experiment: the result-return path of Section II.  The
 * paper routes results back "by a separate address-mapping network
 * with parallel routing since the destination address is known" and
 * excludes it from the queueing-delay analysis.  This bench quantifies
 * what that exclusion hides: total response time (queue + transmit +
 * service + return) with and without the mirror return network, and
 * the sensitivity to the return-transmission speed.
 */

#include "figure_common.hpp"

using namespace rsin;
using namespace rsin::bench;

int
main(int argc, char **argv)
{
    rsin::requireNoArgs(argc, argv);
    const auto cfg = SystemConfig::parse("16/1x16x16 OMEGA/2");
    const double mu_n = 1.0;
    for (double mu_s : {0.1, 1.0}) {
        TextTable table(formatf("Response time with result return, "
                                "16/1x16x16 OMEGA/2, mu_s/mu_n = %.1f",
                                mu_s));
        table.header({"rho", "no return net", "return at muN",
                      "return at 4*muN", "forward d (check)"});
        for (double rho : {0.2, 0.4, 0.6, 0.8}) {
            workload::WorkloadParams params;
            params.muN = mu_n;
            params.muS = mu_s;
            params.lambda = lambdaAt(rho, mu_n, mu_s);
            SimOptions opts;
            opts.seed = 717;
            opts.warmupTasks = 3000;
            opts.measureTasks = 30000;

            ModelOptions none, slow, fast;
            slow.omega.modelReturnNetwork = true;
            fast.omega.modelReturnNetwork = true;
            fast.omega.muReturn = 4.0 * mu_n;

            const auto a = simulate(cfg, params, opts, none);
            const auto b = simulate(cfg, params, opts, slow);
            const auto c = simulate(cfg, params, opts, fast);
            if (a.saturated || b.saturated || c.saturated) {
                table.row({formatf("%.1f", rho), "saturated", "-", "-",
                           "-"});
                continue;
            }
            table.row({formatf("%.1f", rho),
                       formatf("%.3f", a.meanResponse),
                       formatf("%.3f", b.meanResponse),
                       formatf("%.3f", c.meanResponse),
                       formatf("%.3f", b.meanDelay)});
        }
        table.print(std::cout);
        std::cout << "\n";
    }
    std::cout <<
        "The forward queueing delay d (the paper's metric) is\n"
        "unchanged by the return path.  The striking result is at\n"
        "mu_s/mu_n = 1.0 with full-size results: the *return* network\n"
        "saturates (response times explode) at loads the forward RSIN\n"
        "carries easily.  Return circuits have fixed destinations and\n"
        "cannot reroute -- exactly the address-mapping weakness the\n"
        "RSIN forward path avoids -- so head-of-line blocking destroys\n"
        "the return path's capacity.  Results a quarter the task size\n"
        "(return at 4*muN) make the problem vanish.\n";
    return 0;
}
