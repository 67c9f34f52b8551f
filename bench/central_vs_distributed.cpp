/**
 * @file
 * Reproduces the scheduling-overhead scaling comparison woven through
 * Sections IV and V: a centralized scheduler serves p requests in
 * O(p log m) (priority circuit) or O(p*m) (tree allocator) gate
 * delays, while the distributed crossbar serves them all in one
 * request cycle of at most 4(p+m) gate delays -- measured here on the
 * actual gate-level fabric -- and the distributed multistage network
 * schedules in O(log N) stages independent of the request count.
 */

#include <iostream>

#include "common/args.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/text.hpp"
#include "logic/arbiters.hpp"
#include "logic/crossbar_cell.hpp"
#include "sched/centralized.hpp"
#include "topology/multistage.hpp"

int
main(int argc, char **argv)
{
    rsin::requireNoArgs(argc, argv);
    using namespace rsin;
    using namespace rsin::sched;
    using rsin::logic::CrossbarFabric;

    TextTable table("Scheduling overhead to serve p requests "
                    "(gate delays)");
    table.header({"p = m", "central tree O(p*m)",
                  "central priority O(p log m)",
                  "distributed XBAR (measured)", "bound 4(p+m)",
                  "multistage stages O(log N)"});
    for (std::size_t n : {4u, 8u, 16u, 32u}) {
        CentralizedDelayModel model{n, n};
        CrossbarFabric fab(n, n);
        const auto req = fab.requestCycle(std::vector<bool>(n, true),
                                          std::vector<bool>(n, true));
        table.row({formatf("%zu", n),
                   formatf("%zu", model.serveAll(n, true)),
                   formatf("%zu", model.serveAll(n, false)),
                   formatf("%zu", req.gateDelays),
                   formatf("%zu", 4 * (n + n)),
                   formatf("%zu", ceilLog2(n))});
    }
    table.print(std::cout);

    // Gate-level measurements of the centralized selectors themselves:
    // the worst-case settle delay of one selection (last line active)
    // and the gate budget.
    std::cout << "\nMeasured selector hardware (one selection, worst "
                 "case):\n";
    TextTable sel;
    sel.header({"m", "daisy-chain delay", "prefix (Foster) delay",
                "daisy gates", "prefix gates"});
    for (std::size_t m : {8u, 16u, 32u, 64u}) {
        auto daisy = logic::ArbiterCircuit::daisyChain(m);
        auto prefix = logic::ArbiterCircuit::parallelPrefix(m);
        std::vector<bool> all(m, true), last(m, false);
        last[m - 1] = true;
        daisy.select(all);
        const auto d = daisy.select(last);
        prefix.select(all);
        const auto p = prefix.select(last);
        sel.row({formatf("%zu", m), formatf("%zu", d.gateDelays),
                 formatf("%zu", p.gateDelays),
                 formatf("%zu", daisy.gateCount()),
                 formatf("%zu", prefix.gateCount())});
    }
    sel.print(std::cout);

    std::cout << "\nEnumeration cost of the clairvoyant centralized "
                 "scheduler (paper bound: (x choose y) * y! mappings).\n"
                 "On a free network branch-and-bound prunes hard (an "
                 "all-served mapping is found early); congested\n"
                 "instances, where the optimum is strictly below "
                 "min(x, y), approach the combinatorial cost:\n";
    TextTable enum_cost;
    enum_cost.header({"x = y", "paper bound y!", "nodes (free network)",
                      "nodes (congested)", "optimum (congested)"});
    const topology::MultistageNetwork net(
        topology::MultistageKind::Omega, 16);
    for (std::size_t k = 2; k <= 7; ++k) {
        std::vector<std::size_t> sources, outputs;
        for (std::size_t i = 0; i < k; ++i) {
            sources.push_back(i);
            outputs.push_back(i);
        }
        topology::CircuitState free_net(net);
        const auto easy = optimalMapping(net, free_net, sources, outputs);

        // Congest the fabric: the other inputs hold circuits *into the
        // same output region*, so most candidate mappings die deep in
        // the search and the incumbent bound cannot prune early.
        topology::CircuitState congested(net);
        Rng rng(k);
        std::size_t placed = 0;
        for (std::size_t extra = 8; extra < 16 && placed < 3; ++extra) {
            const std::size_t dst = rng.uniformInt(std::uint64_t{8});
            const auto path = net.path(extra, dst);
            if (congested.pathFree(path)) {
                congested.claim(path);
                ++placed;
            }
        }
        const auto hard =
            optimalMapping(net, congested, sources, outputs);
        double factorial = 1.0;
        for (std::size_t i = 2; i <= k; ++i)
            factorial *= static_cast<double>(i);
        enum_cost.row({formatf("%zu", k), formatf("%.0f", factorial),
                       formatf("%zu", easy.nodesExplored),
                       formatf("%zu", hard.nodesExplored),
                       formatf("%zu", hard.maxAllocations)});
    }
    enum_cost.print(std::cout);
    return 0;
}
