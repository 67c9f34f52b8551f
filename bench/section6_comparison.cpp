/**
 * @file
 * Reproduces the Section VI cross-class comparison: with comparable
 * network/resource budgets, a 16/16x1x1 SBUS/3 system delivers much
 * better delay than 16/4x4x4 OMEGA/2 or 16/4x4x4 XBAR/2, while the
 * large single networks (crossbar and Omega) bound everything from
 * below.  Swept over rho for both workload ratios.
 *
 * --scale large switches to the campaign-scale variant the paper could
 * not run: the same cross-class comparison at p = 131072 processors
 * (p >= 1e5) for workload ratios 0.1 and 10, executed through the
 * partitioned DES engine.  Pass --jobs N --shards N (or --shards 0)
 * to spread each run over N calendar shards; every row uses the
 * default arbitration and routing policy, so rows are bit-identical at
 * any shard count.  The table reports wall-clock and
 * event throughput next to the delay so the scaling is visible.
 */

#include "figure_common.hpp"
#include "rsin/advisor.hpp"

namespace {

using namespace rsin;
using namespace rsin::bench;

/** The p >= 1e5 cross-class comparison at ratios 0.1 and 10. */
void
runScaled()
{
    const std::size_t shards = benchContext().shards;
    std::cout << "Scaled Section VI comparison: p = 131072 (>= 1e5), "
              << shards << " calendar shard(s) per run\n\n";
    const std::uint64_t measure = 30000;
    for (const double ratio : {0.1, 10.0}) {
        const double mu_n = 1.0;
        const double mu_s = mu_n * ratio;
        TextTable table(
            formatf("scaled comparison, mu_s/mu_n = %.1f", ratio));
        table.header({"config", "rho", "mu_s*d", "status", "events",
                      "wall s", "Mevents/s"});
        for (const char *text :
             {"131072/8192x1x1 SBUS/2", "131072/8192x16x16 XBAR/2",
              "131072/8192x16x16 OMEGA/2"}) {
            const auto cfg = SystemConfig::parse(text);
            for (const double rho : {0.2, 0.5, 0.8}) {
                workload::WorkloadParams params;
                params.muN = mu_n;
                params.muS = mu_s;
                params.lambda = lambdaForRho(cfg, rho, mu_n, mu_s);
                SimOptions opts;
                opts.seed = 97;
                opts.warmupTasks = measure / 10;
                opts.measureTasks = measure;
                opts.shards = shards;
                const auto t0 = std::chrono::steady_clock::now();
                const auto res = simulate(cfg, params, opts, {},
                                          shards != 1 ? sweepPool()
                                                      : nullptr);
                const std::chrono::duration<double> dt =
                    std::chrono::steady_clock::now() - t0;
                const double rate =
                    dt.count() > 0.0
                        ? static_cast<double>(res.kernel.fired) /
                              dt.count() / 1e6
                        : 0.0;
                const std::string display =
                    obs::displayValue(res, res.normalizedDelay);
                table.row({cfg.str(), formatf("%.2f", rho), display,
                           toString(res.status),
                           formatf("%llu", static_cast<unsigned long long>(
                                               res.kernel.fired)),
                           formatf("%.2f", dt.count()),
                           formatf("%.2f", rate)});
                logPoint(cfg.str() + " (scaled)", cfg.str(),
                         obs::RecordKind::Run, rho, params.lambda, mu_n,
                         mu_s, opts.seed, 0, res, dt.count(), display);
            }
        }
        table.print(std::cout);
        std::cout << "\n";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    initBench(argc, argv, {"scale"});
    const std::string scale = benchOption("scale");
    if (!scale.empty() && scale != "paper" && scale != "large") {
        std::cerr << "error: --scale expects 'paper' or 'large', got '"
                  << scale << "'\n";
        return 1;
    }
    if (scale == "large") {
        runScaled();
        return finishBench();
    }

    for (double mu_s : {0.1, 1.0}) {
        const double mu_n = 1.0;
        std::vector<Curve> curves;
        curves.push_back(
            sbusAnalyticCurve("16/16x1x1 SBUS/3", mu_n, mu_s));
        for (const char *text : {"16/4x4x4 OMEGA/2", "16/4x4x4 XBAR/2",
                                 "16/1x16x16 OMEGA/2",
                                 "16/1x16x16 XBAR/2"})
            curves.push_back(simulatedCurve(text, mu_n, mu_s));
        printCurves(formatf("Section VI comparison, mu_s/mu_n = %.1f",
                            mu_s),
                    curves);
    }

    // Gate budgets behind the comparison.
    std::cout << "Network gate budgets:\n";
    TextTable costs;
    costs.header({"system", "network gates", "total resources"});
    for (const char *text :
         {"16/16x1x1 SBUS/3", "16/4x4x4 OMEGA/2", "16/4x4x4 XBAR/2",
          "16/1x16x16 OMEGA/2", "16/1x16x16 XBAR/2"}) {
        const auto cfg = SystemConfig::parse(text);
        costs.row({cfg.str(), formatf("%zu", networkGateCost(cfg)),
                   formatf("%zu", cfg.totalResources())});
    }
    costs.print(std::cout);
    return finishBench();
}
