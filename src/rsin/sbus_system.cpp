#include "sbus_system.hpp"

#include "common/error.hpp"

namespace rsin {

SbusSystem::SbusSystem(const SystemConfig &config,
                       const workload::WorkloadParams &params,
                       const SimOptions &options,
                       const ShardContext &shard)
    : SystemSimulation(config.processors, params, options, shard)
{
    config.validate();
    RSIN_REQUIRE(config.network == NetworkClass::SingleBus,
                 "SbusSystem: config is not an SBUS system: ",
                 config.str());
    const std::size_t per_partition = config.processorsPerNet();
    buses_.resize(config.networks);
    busOf_.resize(config.processors);
    for (std::size_t b = 0; b < buses_.size(); ++b) {
        buses_[b].resources = config.resourcesPerPort;
        buses_[b].firstProcessor = b * per_partition;
        buses_[b].lastProcessor = (b + 1) * per_partition;
        for (std::size_t proc = buses_[b].firstProcessor;
             proc < buses_[b].lastProcessor; ++proc)
            busOf_[proc] = b;
    }
}

void
SbusSystem::onArrival(std::size_t proc)
{
    dispatchBus(busOf_[proc]);
}

void
SbusSystem::dispatchBus(std::size_t bus_index)
{
    const Bus &bus = buses_[bus_index];
    if (bus.transmitting || bus.busyResources >= bus.resources)
        return;
    // Bus arbitration: the waiting task that arrived first wins (global
    // FIFO within the partition, matching the pooled-queue Markov
    // analysis of Section III).
    const std::size_t last = bus.lastProcessor;
    std::size_t chosen = last;
    double best_arrival = 0.0;
    for (std::size_t proc = nextReady(bus.firstProcessor, last);
         proc < last; proc = nextReady(proc + 1, last)) {
        const double arrival = headTask(proc).arrival;
        if (chosen == last || arrival < best_arrival) {
            chosen = proc;
            best_arrival = arrival;
        }
    }
    if (chosen != last)
        startOn(bus_index, chosen);
}

void
SbusSystem::startOn(std::size_t bus_index, std::size_t proc)
{
    Bus &bus = buses_[bus_index];
    workload::Task task = beginTransmission(proc);
    bus.transmitting = true;
    task.routingAttempts = 1;
    sim().schedule(task.transmitTime, [this, bus_index, proc,
                                       task = std::move(task)]() mutable {
        Bus &b = buses_[bus_index];
        b.transmitting = false;
        ++b.busyResources;
        RSIN_ASSERT(b.busyResources <= b.resources,
                    "SbusSystem: resource overcommit");
        endTransmission(proc);
        task.transmitEnd = sim().now();
        sim().schedule(task.serviceTime,
                       [this, bus_index, task = std::move(task)]() mutable {
                           --buses_[bus_index].busyResources;
                           completeTask(std::move(task));
                           dispatchBus(bus_index);
                       });
        dispatchBus(bus_index);
    });
}

} // namespace rsin
