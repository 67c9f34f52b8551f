/**
 * @file
 * Reproduces the paper's Fig. 11 worked example and reports routing
 * detail of the clocked interchange-box scheduler: processors
 * {0, 3, 4, 5} request on a free 8x8 Omega while resources
 * {0, 1, 4, 5} are available; all four are served, one after a
 * reject/reroute, averaging ~3.5 boxes per request.  The bench also
 * sweeps the routing policies and measures how box visits grow with
 * contention.
 */

#include <iostream>

#include "common/args.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/text.hpp"
#include "sched/omega_boxes.hpp"
#include "topology/multistage.hpp"

using namespace rsin;
using namespace rsin::sched;
using namespace rsin::topology;

namespace {

const char *
policyName(RoutingPolicy p)
{
    switch (p) {
      case RoutingPolicy::MostResources: return "most-resources";
      case RoutingPolicy::PreferUpper: return "prefer-upper";
      case RoutingPolicy::RandomTie: return "random-tie";
    }
    return "?";
}

} // namespace

int
main(int argc, char **argv)
{
    rsin::requireNoArgs(argc, argv);
    const MultistageNetwork net(MultistageKind::Omega, 8);

    // --- The exact Fig. 11 scenario under each policy.
    TextTable fig11("Fig. 11 example -- P{0,3,4,5} request, "
                    "R{0,1,4,5} free");
    fig11.header({"policy", "served", "mean boxes/request", "rejects",
                  "ticks", "paper"});
    for (auto policy :
         {RoutingPolicy::MostResources, RoutingPolicy::PreferUpper,
          RoutingPolicy::RandomTie}) {
        CircuitState circuit(net);
        ResourcePool pool(8, 1);
        for (std::size_t port : {2u, 3u, 6u, 7u})
            pool.forceBusy(port, 0);
        ClockedOmegaScheduler sched(net, policy);
        Rng rng(7);
        const auto round =
            sched.scheduleRound(circuit, pool, {0, 3, 4, 5}, rng);
        fig11.row({policyName(policy), formatf("%zu", round.served),
                   formatf("%.2f", round.meanBoxesPerServedRequest()),
                   formatf("%zu", round.totalRejects),
                   formatf("%zu", round.ticksUsed), "3.5 boxes"});
    }
    fig11.print(std::cout);

    // --- Box visits versus contention level (random scenarios).
    std::cout << "\n";
    TextTable sweep("Mean boxes per served request vs contention "
                    "(8x8, 2000 scenarios each)");
    sweep.header({"requesting x", "free y", "mean boxes", "rejects/req",
                  "served/min(x,y)"});
    Rng rng(99);
    for (std::size_t x : {2u, 4u, 6u, 8u}) {
        for (std::size_t y : {2u, 4u, 8u}) {
            double boxes = 0.0, rejects = 0.0, served = 0.0;
            double possible = 0.0;
            int samples = 0;
            for (int trial = 0; trial < 2000; ++trial) {
                CircuitState circuit(net);
                ResourcePool pool(8, 1);
                const auto frees = rng.sampleWithoutReplacement(8, y);
                std::vector<bool> is_free(8, false);
                for (auto f : frees)
                    is_free[f] = true;
                for (std::size_t port = 0; port < 8; ++port)
                    if (!is_free[port])
                        pool.forceBusy(port, 0);
                const auto sources = rng.sampleWithoutReplacement(8, x);
                ClockedOmegaScheduler sched(net);
                const auto round =
                    sched.scheduleRound(circuit, pool, sources, rng);
                if (round.served > 0) {
                    boxes += round.meanBoxesPerServedRequest();
                    ++samples;
                }
                rejects += static_cast<double>(round.totalRejects) /
                           static_cast<double>(x);
                served += static_cast<double>(round.served);
                possible += static_cast<double>(std::min(x, y));
            }
            sweep.row({formatf("%zu", x), formatf("%zu", y),
                       formatf("%.2f", boxes / samples),
                       formatf("%.3f", rejects / 2000.0),
                       formatf("%.3f", served / possible)});
        }
    }
    sweep.print(std::cout);
    return 0;
}
