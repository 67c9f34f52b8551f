/**
 * @file
 * PUMPS-style scenario from the paper's introduction: a multiprocessor
 * with pools of special-purpose VLSI units (FFT, matrix inversion,
 * sorting).  This exercises the multiple-resource-type extension of
 * Section V: requests carry a type tag; availability is tracked per
 * type in the network.
 *
 * The example compares a typed pool shared through one 16x16 Omega
 * RSIN against statically splitting the machine into one private
 * partition per unit type.
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

    // 16 processors, 32 units of 4 types (FFT, INV, SORT, HIST),
    // 8 of each, spread two-per-output-port round-robin by type.
    const auto shared_cfg = SystemConfig::parse("16/1x16x16 OMEGA/2");
    const double mu_n = 1.0, mu_s = 0.1;

    std::cout <<
        "PUMPS-style pool of special VLSI function units: 32 units of\n"
        "4 types shared by 16 processors through one Omega RSIN,\n"
        "versus 4 static partitions of 4 processors + 8 units each.\n\n";

    TextTable table("Typed sharing vs static partitioning");
    table.header({"rho", "shared typed RSIN (mu_s*d)",
                  "static partitions (mu_s*d)"});
    for (double rho : {0.2, 0.4, 0.6, 0.8}) {
        // Shared: typed tasks over the full network.
        workload::WorkloadParams typed;
        typed.muN = mu_n;
        typed.muS = mu_s;
        typed.resourceTypes = 4;
        typed.lambda = lambdaForRho(shared_cfg, rho, mu_n, mu_s);
        SimOptions opts;
        opts.seed = 21;
        opts.warmupTasks = 2000;
        opts.measureTasks = 30000;
        const auto shared = simulate(shared_cfg, typed, opts);

        // Static: each type gets 4 processors and a 4x4 Omega to its
        // 8 units -- same hardware, no cross-type sharing.  A
        // processor's tasks of "other" types would have to be routed
        // to the right partition; with uniform types this is exactly a
        // 16/4x4x4 OMEGA/2 system on untyped tasks.
        const auto split_cfg = SystemConfig::parse("16/4x4x4 OMEGA/2");
        workload::WorkloadParams untyped = typed;
        untyped.resourceTypes = 1;
        const auto split = simulate(split_cfg, untyped, opts);

        table.row({formatf("%.1f", rho),
                   shared.saturated
                       ? "saturated"
                       : formatf("%.4f", shared.normalizedDelay),
                   split.saturated
                       ? "saturated"
                       : formatf("%.4f", split.normalizedDelay)});
    }
    table.print(std::cout);

    std::cout <<
        "\nTyped status propagation (one availability register per\n"
        "type per port, Section V) lets one network serve all four\n"
        "pools; static splitting strands capacity whenever one type's\n"
        "demand spikes.\n";
    return 0;
}
