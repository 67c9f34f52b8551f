/**
 * @file
 * Load-balancing scenario from the paper's introduction: "Processors
 * are considered as resources themselves.  When a processor is
 * overloaded, the excess load is sent to any available processor in
 * the system."
 *
 * We model 16 worker processors behind a 16x16 Omega RSIN: each
 * overloaded node ships excess tasks into the network without naming a
 * destination, and the distributed scheduler finds an idle worker.
 * The example sweeps the offload intensity and shows how the RSIN
 * keeps the spill delay low compared to pre-addressed (random
 * destination) offloading.
 */

#include <cstdio>
#include <iostream>

#include "common/args.hpp"
#include "common/table.hpp"
#include "common/text.hpp"
#include "rsin/analysis.hpp"
#include "rsin/factory.hpp"

int
main(int argc, char **argv)
{
    rsin::requireNoArgs(argc, argv);
    using namespace rsin;

    // 16 source nodes spill work to 16 worker processors (one worker
    // per output port: r = 1).  Transmission ships the task image
    // (fast); service is the actual remote execution (slow):
    // mu_s/mu_n = 0.1.
    const auto cfg = SystemConfig::parse("16/1x16x16 OMEGA/1");
    const double mu_n = 1.0, mu_s = 0.1;

    std::cout <<
        "Load balancing over a 16x16 Omega RSIN: overloaded nodes\n"
        "send excess tasks to *any* idle worker; the network finds\n"
        "one with distributed scheduling.\n\n";

    TextTable table("Spill delay vs offload intensity");
    table.header({"offload rho", "RSIN delay (mu_s*d)",
                  "pre-addressed delay", "RSIN advantage"});
    for (double rho : {0.2, 0.4, 0.6, 0.8}) {
        workload::WorkloadParams params;
        params.muN = mu_n;
        params.muS = mu_s;
        params.lambda = lambdaForRho(cfg, rho, mu_n, mu_s);

        SimOptions opts;
        opts.seed = 11;
        opts.warmupTasks = 2000;
        opts.measureTasks = 30000;

        ModelOptions distributed;
        const auto d = simulate(cfg, params, opts, distributed);

        ModelOptions addressed;
        addressed.omega.scheduling = OmegaScheduling::AddressRandomFree;
        const auto a = simulate(cfg, params, opts, addressed);

        if (d.saturated || a.saturated) {
            table.row({formatf("%.1f", rho),
                       d.saturated ? "saturated" : "ok",
                       a.saturated ? "saturated" : "ok", "-"});
            continue;
        }
        table.row({formatf("%.1f", rho),
                   formatf("%.4f", d.normalizedDelay),
                   formatf("%.4f", a.normalizedDelay),
                   formatf("%.2fx", a.normalizedDelay /
                                        std::max(d.normalizedDelay,
                                                 1e-9))});
    }
    table.print(std::cout);

    std::cout <<
        "\nThe distributed scheduler never commits a task to a busy\n"
        "worker, so spills queue only when every worker is busy;\n"
        "pre-addressed offloading can block on the path to its chosen\n"
        "worker even while others idle.\n";
    return 0;
}
