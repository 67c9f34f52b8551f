/**
 * @file
 * Ablation: sensitivity to the exponential assumption (paper
 * assumption (a)).  The Markov analysis requires exponential transmit
 * and service times; this bench re-runs the 16/16x1x1 SBUS/2 and
 * 16/1x16x16 OMEGA/2 systems with deterministic, Erlang-2 and
 * 2-phase-hyperexponential service times (CV^2 = 0, 0.5, 1, 4) and
 * shows how far the delays move from the exponential (analytic) case.
 */

#include "figure_common.hpp"

using namespace rsin;
using namespace rsin::bench;

namespace {

const char *
distName(workload::TimeDistribution d)
{
    switch (d) {
      case workload::TimeDistribution::Deterministic: return "det (CV2=0)";
      case workload::TimeDistribution::Erlang2: return "erlang2 (0.5)";
      case workload::TimeDistribution::Exponential: return "exp (1)";
      case workload::TimeDistribution::Hyper2: return "hyper2 (4)";
    }
    return "?";
}

Curve
curveWithServiceDist(const std::string &config, double mu_n, double mu_s,
                     workload::TimeDistribution dist)
{
    const auto cfg = SystemConfig::parse(config);
    Curve curve{distName(dist), {}};
    std::uint64_t seed = 900;
    for (double rho : rhoGrid()) {
        workload::WorkloadParams params;
        params.muN = mu_n;
        params.muS = mu_s;
        params.serviceDist = dist;
        params.lambda = lambdaAt(rho, mu_n, mu_s);
        SimOptions opts;
        opts.seed = seed++;
        opts.warmupTasks = 2000;
        opts.measureTasks = 20000;
        const auto res = simulateReplicated(cfg, params, opts, 3);
        curve.cells.push_back(cell(res.normalizedDelay, !res.saturated));
    }
    return curve;
}

} // namespace

int
main(int argc, char **argv)
{
    rsin::requireNoArgs(argc, argv);
    const double mu_n = 1.0, mu_s = 0.1;
    for (const char *config :
         {"16/16x1x1 SBUS/2", "16/1x16x16 OMEGA/2"}) {
        std::vector<Curve> curves;
        for (auto dist : {workload::TimeDistribution::Deterministic,
                          workload::TimeDistribution::Erlang2,
                          workload::TimeDistribution::Exponential,
                          workload::TimeDistribution::Hyper2})
            curves.push_back(
                curveWithServiceDist(config, mu_n, mu_s, dist));
        printCurves(formatf("Service-time distribution ablation, %s, "
                            "mu_s/mu_n = 0.1",
                            config),
                    curves);
    }
    std::cout <<
        "Higher service-time variability (CV^2) lengthens queueing\n"
        "delay at the same utilization; the exponential assumption of\n"
        "the paper's analysis sits between the deterministic best case\n"
        "and the bursty hyperexponential worst case.\n";
    return 0;
}
