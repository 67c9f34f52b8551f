/**
 * @file
 * Ablation: how long must a simulation warm up?  Using uniformization
 * on the truncated SBUS chain (Section III's model), this bench
 * computes the time for the system started empty to come within 1e-3
 * total variation of stationarity, across loads and ratios -- turning
 * the warm-up period the simulations discard (SimOptions::warmupTasks)
 * from folklore into a computed quantity.
 */

#include <iostream>

#include "common/table.hpp"
#include "common/text.hpp"
#include "markov/sbus_model.hpp"
#include "markov/transient.hpp"
#include "queueing/mm_queues.hpp"

int
main()
{
    using namespace rsin;
    using namespace rsin::markov;

    TextTable table("SBUS mixing time to within 1e-3 TV of "
                    "stationarity (started empty)");
    table.header({"mu_s/mu_n", "rho", "t_mix (service times)",
                  "expected tasks in t_mix"});
    for (double ratio : {0.1, 1.0}) {
        // At ratio 1.0 the 4-processor bus saturates near rho ~ 0.4,
        // so that sweep stays lighter.
        const std::vector<double> rhos =
            ratio < 0.5 ? std::vector<double>{0.2, 0.4, 0.6, 0.8}
                        : std::vector<double>{0.1, 0.2, 0.3, 0.35};
        for (double rho : rhos) {
            SbusParams prm;
            prm.p = 4;
            prm.muN = 1.0;
            prm.muS = ratio;
            prm.r = 4;
            prm.lambda = queueing::arrivalRateForIntensity(
                prm.p, prm.r, rho, prm.muN, prm.muS);
            const SbusChain sbus(prm);
            if (!sbus.stable()) {
                table.row({formatf("%.1f", ratio), formatf("%.2f", rho),
                           "unstable", "-"});
                continue;
            }
            const Ctmc chain = sbus.buildTruncated(60);
            la::Vector init(chain.states(), 0.0);
            init[0] = 1.0;
            const auto pi = chain.stationaryDense();
            const double t =
                timeToConverge(chain, init, pi, 1e-3, 0.25);
            table.row({formatf("%.1f", ratio), formatf("%.2f", rho),
                       formatf("%.3g", t * prm.muS),
                       formatf("%.0f", t * prm.arrivalRate())});
        }
    }
    table.print(std::cout);
    std::cout <<
        "\nMixing slows sharply near saturation: the warm-up that is\n"
        "plenty at rho = 0.2 undercounts congestion at rho = 0.8.  The\n"
        "simulations' default warm-up (thousands of tasks) covers the\n"
        "whole table with a wide margin.\n";
    return 0;
}
