/**
 * @file
 * Ablation: the cost of the crossbar cell's asymmetry.  Section IV
 * admits the design "favors processors with small index numbers" and
 * offers the POLYP-style circulating token as the fair alternative.
 * Work conservation keeps the *mean* delay essentially unchanged, but
 * the per-processor delay spread differs sharply -- exactly what this
 * bench measures (mean, imbalance = (max-min)/mean).
 */

#include "figure_common.hpp"

using namespace rsin;
using namespace rsin::bench;

namespace {

const char *
arbitrationName(XbarArbitration a)
{
    switch (a) {
      case XbarArbitration::IndexPriority: return "index-priority";
      case XbarArbitration::FifoArrival: return "fifo-arrival";
      case XbarArbitration::RandomToken: return "random-token";
      case XbarArbitration::GateLevel: return "gate-level";
    }
    return "?";
}

} // namespace

int
main(int argc, char **argv)
{
    rsin::requireNoArgs(argc, argv);
    const double mu_n = 1.0, mu_s = 1.0; // network-bound: contention
    const auto cfg = SystemConfig::parse("16/1x16x8 XBAR/2");

    TextTable table("Crossbar arbitration fairness, 16/1x16x8 XBAR/2, "
                    "mu_s/mu_n = 1.0");
    table.header({"rho", "arbitration", "mean delay (mu_s*d)",
                  "imbalance (max-min)/mean"});
    // The 16-processor / 8-bus system saturates near rho ~ 0.55 at
    // this ratio; sweep up to the knee.
    for (double rho : {0.2, 0.35, 0.5}) {
        for (auto arb : {XbarArbitration::IndexPriority,
                         XbarArbitration::FifoArrival,
                         XbarArbitration::RandomToken}) {
            workload::WorkloadParams params;
            params.muN = mu_n;
            params.muS = mu_s;
            params.lambda = lambdaAt(rho, mu_n, mu_s);
            SimOptions opts;
            opts.seed = 515;
            opts.warmupTasks = 3000;
            opts.measureTasks = 40000;
            ModelOptions model;
            model.xbarArbitration = arb;
            const auto res = simulate(cfg, params, opts, model);
            table.row({formatf("%.1f", rho), arbitrationName(arb),
                       res.saturated
                           ? "saturated"
                           : formatf("%.4f", res.normalizedDelay),
                       res.saturated
                           ? "-"
                           : formatf("%.3f", res.delayImbalance)});
        }
    }
    table.print(std::cout);
    std::cout <<
        "\nThe index-priority hardware trades fairness for simplicity:\n"
        "high-index processors wait disproportionately long while the\n"
        "time-average delay (a work-conservation invariant) barely\n"
        "moves.  The POLYP-style token restores fairness at the price\n"
        "of extra signal lines (Section IV).\n";
    return 0;
}
