/**
 * @file
 * Reproduces the Section III solver-validation experiment: the paper's
 * staged iterative procedure versus a direct simultaneous solve of all
 * balance equations ("within four digits of accuracy in all cases"),
 * with the matrix-geometric QBD solution as a third, truncation-free
 * reference, across a grid of (r, ratio, rho).
 */

#include <cmath>
#include <iostream>
#include <string>

#include "common/args.hpp"
#include "common/table.hpp"
#include "common/text.hpp"
#include "markov/omega_model.hpp"
#include "markov/sbus_solvers.hpp"
#include "queueing/mm_queues.hpp"
#include "rsin/analysis.hpp"
#include "rsin/factory.hpp"

namespace {

/** Relative delay error of @p value against the reference @p ref. */
double
relErr(double value, double ref)
{
    return std::fabs(value - ref) / std::max(ref, 1e-300);
}

} // namespace

int
main(int argc, char **argv)
{
    rsin::requireNoArgs(argc, argv);
    using namespace rsin;
    using namespace rsin::markov;

    TextTable table("Section III -- SBUS solver agreement (d values)");
    table.header({"r", "mu_s/mu_n", "rho", "staged (paper)", "direct",
                  "matrix-geometric", "staged digits", "stages used"});
    for (std::size_t r : {1u, 2u, 4u, 8u, 16u, 32u}) {
        for (double ratio : {0.1, 1.0}) {
            for (double rho : {0.3, 0.6, 0.9}) {
                SbusParams prm;
                prm.p = 16;
                prm.muN = 1.0;
                prm.muS = ratio;
                prm.r = r;
                prm.lambda = queueing::arrivalRateForIntensity(
                    prm.p, prm.r, rho, prm.muN, prm.muS);
                const SbusChain chain(prm);
                if (!chain.stable()) {
                    table.row({formatf("%zu", r), formatf("%.1f", ratio),
                               formatf("%.1f", rho), "unstable", "-",
                               "-", "-", "-"});
                    continue;
                }
                const auto staged = solveStaged(chain);
                // The simultaneous balance-equation solve sweeps
                // (r+1)*q states iteratively; at large r and heavy
                // load it costs minutes for digits the QBD column
                // already certifies, so the bench bounds its budget
                // (the test suite exercises the tight defaults at
                // small r).
                // rho = 0.9 on the hypothetical normalization sits at
                // ~98% of the *true* capacity for small r, so the
                // truncated chain needs thousands of levels; keep the
                // direct column to depths that solve in seconds.
                const bool run_direct = (r <= 8 && rho <= 0.6) || r <= 2;
                SbusSolution direct;
                if (run_direct) {
                    SbusSolveOptions direct_opts;
                    direct_opts.relTolerance = 1e-7;
                    direct_opts.directTailMass = 1e-9;
                    direct = solveDirect(chain, direct_opts);
                }
                const auto qbd = solveMatrixGeometric(chain);
                const double rel = std::fabs(staged.queueingDelay -
                                             qbd.queueingDelay) /
                                   std::max(qbd.queueingDelay, 1e-300);
                const double digits =
                    rel > 0 ? -std::log10(rel) : 16.0;
                table.row({formatf("%zu", r), formatf("%.1f", ratio),
                           formatf("%.1f", rho),
                           formatf("%.6g", staged.queueingDelay),
                           run_direct
                               ? formatf("%.6g", direct.queueingDelay)
                               : std::string("(skipped)"),
                           formatf("%.6g", qbd.queueingDelay),
                           formatf("%.1f", digits),
                           formatf("%zu", staged.levelsUsed)});
            }
        }
    }
    table.print(std::cout);
    std::cout <<
        "\nReading the table: at moderate loads the three methods agree"
        "\nto 4+ digits (the paper's claim).  rho = 0.9 on the"
        "\nhypothetical normalization corresponds to ~98% of the true"
        "\ncapacity for small r; there the staged method hits its"
        "\ndouble-precision cancellation wall (digits column -> 0,"
        "\nestimate biased low) and even the truncating direct solve"
        "\nstrains, while the matrix-geometric solution remains exact."
        "\n";

    // ------------------------------------------------------------
    // Sections IV/V: the exact network LD-QBD chains against the
    // reductions and simulation, on a shared rho grid; the simulated
    // delay is the common reference.
    // ------------------------------------------------------------
    const double mu_n = 1.0, mu_s = 0.1;
    TextTable net(
        "Sections IV/V -- exact network chains vs reductions vs "
        "simulation (queueing delay d)");
    net.header({"config", "rho", "exact", "bound", "light", "heavy",
                "sim"});
    double max_exact = 0.0, max_light = 0.0, max_heavy = 0.0;
    for (const char *text :
         {"16/4x4x4 XBAR/2", "16/2x8x8 XBAR/2", "16/4x4x4 OMEGA/2"}) {
        const auto cfg = SystemConfig::parse(text);
        const bool is_xbar = cfg.network == NetworkClass::Crossbar;
        NetChainParams prm;
        prm.processors = cfg.inputsPerNet;
        prm.buses = cfg.outputsPerNet;
        prm.resources = cfg.resourcesPerPort;
        prm.muN = mu_n;
        prm.muS = mu_s;
        if (!is_xbar)
            prm.linkConflict = omegaLinkConflict(cfg.inputsPerNet);
        for (double rho : {0.2, 0.4, 0.6, 0.8}) {
            prm.lambda = lambdaForRho(cfg, rho, mu_n, mu_s);
            const auto exact =
                is_xbar ? solveXbarChain(prm) : solveOmegaChain(prm);

            const auto light =
                is_xbar ? xbarLightLoad(cfg, prm.lambda, mu_n, mu_s)
                        : multistageLightLoad(cfg, prm.lambda, mu_n,
                                              mu_s);
            const bool heavy_ok =
                is_xbar && cfg.inputsPerNet % cfg.outputsPerNet == 0;
            SbusSolution heavy;
            if (heavy_ok)
                heavy = xbarHeavyLoad(cfg, prm.lambda, mu_n, mu_s);

            workload::WorkloadParams wp;
            wp.muN = mu_n;
            wp.muS = mu_s;
            wp.lambda = prm.lambda;
            SimOptions opts;
            opts.seed = 404;
            opts.warmupTasks = 3000;
            opts.measureTasks = 30000;
            const auto sim = simulate(cfg, wp, opts);

            if (!sim.saturated && exact.stable) {
                max_exact = std::max(
                    max_exact,
                    relErr(exact.queueingDelay, sim.meanDelay));
                if (light.stable)
                    max_light = std::max(
                        max_light,
                        relErr(light.queueingDelay, sim.meanDelay));
                if (heavy_ok && heavy.stable)
                    max_heavy = std::max(
                        max_heavy,
                        relErr(heavy.queueingDelay, sim.meanDelay));
            }
            net.row({text, formatf("%.1f", rho),
                     formatf("%.6g", exact.queueingDelay),
                     formatf("%.2g", exact.truncationBound),
                     light.stable ? formatf("%.6g", light.queueingDelay)
                                  : std::string("unstable"),
                     heavy_ok ? (heavy.stable
                                     ? formatf("%.6g",
                                               heavy.queueingDelay)
                                     : std::string("unstable"))
                              : std::string("-"),
                     sim.saturated ? std::string("saturated")
                                   : formatf("%.6g", sim.meanDelay)});
        }
    }
    net.print(std::cout);
    std::cout
        << "\nMax relative delay error vs simulation:"
        << "\n  exact chain:          "
        << formatf("%.3g", max_exact)
        << "\n  light-load reduction: "
        << formatf("%.3g", max_light)
        << "\n  heavy-load reduction: "
        << formatf("%.3g", max_heavy)
        << "\nThe exact chains track simulation to within sampling"
        "\nnoise at every load, while the Section IV reductions drift"
        "\nat mid loads; each chain point also carries its certified"
        "\nrelative truncation bound (column 'bound')."
        "\n";
    return 0;
}
