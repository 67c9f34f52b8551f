#pragma once

/**
 * @file
 * Event-driven model of single-shared-bus RSINs (paper Section III).
 *
 * The processor population is split into i independent partitions; each
 * partition shares one bus connected to r resources.  The bus carries
 * one transmission at a time and only starts one when a destination
 * resource is free (there is no buffering at resources); it falls idle
 * during the final task's service when all resources are busy --
 * exactly the structure of the Fig. 3 Markov chain, which the tests use
 * to validate this simulator against the analytical solvers.
 */

#include <vector>

#include "rsin/system.hpp"

namespace rsin {

/** Simulation model for p/i x 1 x 1 SBUS/r systems. */
class SbusSystem : public SystemSimulation
{
  public:
    /**
     * @param config must have network == NetworkClass::SingleBus
     * @param params workload description
     * @param options run control
     * @param shard partitioned-run capture context (default: serial)
     */
    SbusSystem(const SystemConfig &config,
               const workload::WorkloadParams &params,
               const SimOptions &options, const ShardContext &shard = {});

    std::size_t partitions() const { return buses_.size(); }

  protected:
    void onArrival(std::size_t proc) override;

  private:
    struct Bus
    {
        bool transmitting = false;
        std::size_t busyResources = 0;
        std::size_t resources = 0;
        std::size_t firstProcessor = 0; ///< processor range [first, last)
        std::size_t lastProcessor = 0;
    };

    /** Start the next transmission on bus @p bus_index if it can. */
    void dispatchBus(std::size_t bus_index);
    void startOn(std::size_t bus_index, std::size_t proc);

    std::vector<Bus> buses_;
    std::vector<std::size_t> busOf_; ///< processor -> bus
};

} // namespace rsin
