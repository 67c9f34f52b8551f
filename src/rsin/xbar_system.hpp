#pragma once

/**
 * @file
 * Event-driven model of multiple-shared-bus (crossbar) RSINs (paper
 * Section IV).  Each of the i networks is a j x k crossbar whose k
 * output ports are buses with r resources each.  The crossbar itself is
 * nonblocking; contention exists only for buses and resources.
 *
 * Arbitration mirrors the hardware alternatives of Section IV:
 *  - IndexPriority: the wave-propagation cell design -- processors with
 *    lower indices win, and win lower-numbered buses;
 *  - FifoArrival: the oldest waiting task wins (idealized fairness);
 *  - RandomToken: the POLYP-style circulating-token scheme -- the
 *    winner among contenders is uniformly random.
 */

#include <memory>
#include <vector>

#include "logic/crossbar_cell.hpp"
#include "rsin/system.hpp"

namespace rsin {

/** Who wins when several processors contend for buses. */
enum class XbarArbitration
{
    IndexPriority,
    FifoArrival,
    RandomToken,
    /**
     * Drive the actual gate-level fabric of Section IV inside the
     * simulation: every allocation runs a request cycle through the
     * 11-gate cells and every release a reset cycle.  Semantically
     * identical to IndexPriority (and tested to produce bit-identical
     * runs), but costs real netlist sweeps -- use for validation, not
     * large parameter sweeps.
     */
    GateLevel,
};

/** Simulation model for p/i x j x k XBAR/r systems. */
class CrossbarSystem : public SystemSimulation
{
  public:
    CrossbarSystem(const SystemConfig &config,
                   const workload::WorkloadParams &params,
                   const SimOptions &options,
                   XbarArbitration arbitration =
                       XbarArbitration::IndexPriority,
                   const ShardContext &shard = {});

  protected:
    void onArrival(std::size_t proc) override;

  private:
    struct Bus
    {
        bool transmitting = false;
        std::size_t busyResources = 0;
    };
    struct Net
    {
        std::size_t firstProcessor = 0;
        std::size_t lastProcessor = 0;
        std::vector<Bus> buses;
        std::unique_ptr<logic::CrossbarFabric> fabric; ///< GateLevel
    };

    void dispatchNet(Net &net);
    void dispatchNetGateLevel(Net &net);
    void startOn(Net &net, std::size_t bus_index, std::size_t proc);

    std::vector<Net> nets_;
    std::size_t inputsPerNet_ = 1;
    std::size_t resourcesPerBus_ = 1;
    XbarArbitration arbitration_;
};

} // namespace rsin
