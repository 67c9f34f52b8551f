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
 * (p >= 1e5) for workload ratios 0.1 and 10.  Its 18 runs are cells on
 * the bench pool (--jobs), and the rows print once every cell is done,
 * so they are the same at any --jobs.  The table reports wall-clock
 * time and event throughput next to the delay so the cost is visible.
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
    std::cout << "Scaled Section VI comparison: p = 131072 (>= 1e5)\n\n";
    const double mu_n = 1.0;
    const std::vector<double> ratios{0.1, 10.0}, rhos{0.2, 0.5, 0.8};
    std::vector<SystemConfig> configs;
    for (const char *text :
         {"131072/8192x1x1 SBUS/2", "131072/8192x16x16 XBAR/2",
          "131072/8192x16x16 OMEGA/2"})
        configs.push_back(SystemConfig::parse(text));
    // Grid order: ratio, then config, then rho.
    std::vector<workload::WorkloadParams> params;
    for (const double ratio : ratios)
        for (const SystemConfig &cfg : configs)
            for (const double rho : rhos) {
                workload::WorkloadParams point;
                point.muN = mu_n;
                point.muS = mu_n * ratio;
                point.lambda = lambdaForRho(cfg, rho, mu_n, point.muS);
                params.push_back(point);
            }
    SimOptions opts;
    opts.seed = 97;
    opts.warmupTasks = 3000;
    opts.measureTasks = 30000;
    // Every run is one cell on the bench pool; the tables print
    // afterwards.
    std::vector<SimResult> results(params.size());
    std::vector<double> wall(params.size(), 0.0);
    const exec::SweepRunner runner(sweepPool(),
                                   benchContext().observer.get());
    runner.run(ratios.size() * configs.size(), rhos.size(), 1, 0,
               [&](const exec::SweepCell &cell) {
                   const auto t0 = std::chrono::steady_clock::now();
                   results[cell.flat] =
                       simulate(configs[cell.config % configs.size()],
                                params[cell.flat], opts);
                   const std::chrono::duration<double> dt =
                       std::chrono::steady_clock::now() - t0;
                   wall[cell.flat] = dt.count();
               });

    std::size_t flat = 0;
    for (const double ratio : ratios) {
        TextTable table(
            formatf("scaled comparison, mu_s/mu_n = %.1f", ratio));
        table.header({"config", "rho", "mu_s*d", "status", "events",
                      "wall s", "Mevents/s"});
        for (const SystemConfig &cfg : configs) {
            for (const double rho : rhos) {
                const SimResult &res = results[flat];
                const double dt = wall[flat];
                const double rate =
                    dt > 0.0 ? static_cast<double>(res.kernel.fired) /
                                   dt / 1e6
                             : 0.0;
                const std::string display =
                    obs::displayValue(res, res.normalizedDelay);
                table.row({cfg.str(), formatf("%.2f", rho), display,
                           toString(res.status),
                           formatf("%llu", static_cast<unsigned long long>(
                                               res.kernel.fired)),
                           formatf("%.2f", dt), formatf("%.2f", rate)});
                logPoint(cfg.str() + " (scaled)", cfg.str(),
                         obs::RecordKind::Run, rho, params[flat].lambda,
                         mu_n, params[flat].muS, opts.seed, 0, res, dt,
                         display);
                ++flat;
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
