/**
 * @file
 * Reproduces paper Table I and the Section IV timing claims at the
 * gate level: the cell truth table, the 11-gate/1-latch cost, and the
 * request/reset cycle lengths (<= 4(p+m) and <= (p+m) gate delays)
 * measured on real wave propagation through fabrics up to 32x32.
 */

#include <cstdio>
#include <iostream>

#include "common/args.hpp"
#include "common/table.hpp"
#include "common/text.hpp"
#include "logic/crossbar_cell.hpp"

int
main(int argc, char **argv)
{
    rsin::requireNoArgs(argc, argv);
    using namespace rsin;
    using namespace rsin::logic;

    // --- Table I: enumerate the cell truth table from the netlist.
    TextTable truth("Table I -- crossbar cell truth table (measured)");
    truth.header({"MODE", "X", "Y", "X_next", "Y_next", "S(latch set)",
                  "R(latch reset)"});
    for (int mode = 0; mode <= 1; ++mode) {
        for (int x = 0; x <= 1; ++x) {
            for (int y = 0; y <= 1; ++y) {
                Netlist nl;
                const NetId m_net = nl.makeNet();
                const NetId x_net = nl.makeNet();
                const NetId y_net = nl.makeNet();
                const CellPorts cell =
                    buildCrossbarCell(nl, m_net, x_net, y_net);
                LogicSim sim(nl);
                // Power-on reset: settle and clear the latch before
                // applying the row's inputs.
                sim.settle();
                sim.set(cell.latchQ, false);
                sim.settle();
                sim.set(m_net, mode);
                sim.set(x_net, x);
                sim.set(y_net, y);
                sim.settle();
                truth.row({mode ? "Reset" : "Request",
                           formatf("%d", x), formatf("%d", y),
                           formatf("%d", sim.get(cell.xOut) ? 1 : 0),
                           formatf("%d", sim.get(cell.yOut) ? 1 : 0),
                           formatf("%d", sim.get(cell.latchQ) ? 1 : 0),
                           mode && x ? "1" : "0"});
            }
        }
    }
    truth.print(std::cout);

    // --- Gate budget.
    {
        Netlist nl;
        const NetId m = nl.makeNet(), x = nl.makeNet(), y = nl.makeNet();
        buildCrossbarCell(nl, m, x, y);
        std::cout << "\nCell cost: " << nl.combinationalGates()
                  << " gates + " << nl.latches()
                  << " latch (paper: eleven gates and one latch)\n\n";
    }

    // --- Cycle lengths versus the 4(p+m) / (p+m) bounds.
    // Note on the reset column: the paper idealizes the reset wave at
    // one gate delay per cell (cycle <= p+m); this realization pays
    // two synchronization delay pads per cell in the X path (needed to
    // make the asynchronous request wave race-free), so its reset
    // bound is 3(p+m).
    TextTable cycles("Section IV -- measured cycle lengths (gate delays)");
    cycles.header({"p", "m", "request", "bound 4(p+m)", "reset",
                   "paper (p+m)", "impl 3(p+m)", "served"});
    for (std::size_t p : {4u, 8u, 16u, 32u}) {
        for (std::size_t m : {4u, 8u, 16u, 32u}) {
            CrossbarFabric fab(p, m);
            const auto req = fab.requestCycle(
                std::vector<bool>(p, true), std::vector<bool>(m, true));
            std::size_t served = 0;
            for (auto a : req.allocation)
                served += (a != CrossbarFabric::npos) ? 1 : 0;
            const auto rst =
                fab.resetCycle(std::vector<bool>(p, true));
            cycles.row({formatf("%zu", p), formatf("%zu", m),
                        formatf("%zu", req.gateDelays),
                        formatf("%zu", 4 * (p + m)),
                        formatf("%zu", rst.gateDelays),
                        formatf("%zu", p + m),
                        formatf("%zu", 3 * (p + m)),
                        formatf("%zu", served)});
        }
    }
    cycles.print(std::cout);
    return 0;
}
