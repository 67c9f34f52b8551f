#include "xbar_system.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace rsin {

CrossbarSystem::CrossbarSystem(const SystemConfig &config,
                               const workload::WorkloadParams &params,
                               const SimOptions &options,
                               XbarArbitration arbitration,
                               const ShardContext &shard)
    : SystemSimulation(config.processors, params, options, shard),
      arbitration_(arbitration)
{
    config.validate();
    RSIN_REQUIRE(config.network == NetworkClass::Crossbar,
                 "CrossbarSystem: config is not an XBAR system: ",
                 config.str());
    inputsPerNet_ = config.inputsPerNet;
    resourcesPerBus_ = config.resourcesPerPort;
    nets_.resize(config.networks);
    for (std::size_t n = 0; n < nets_.size(); ++n) {
        nets_[n].firstProcessor = n * config.inputsPerNet;
        nets_[n].lastProcessor = (n + 1) * config.inputsPerNet;
        nets_[n].buses.resize(config.outputsPerNet);
        if (arbitration_ == XbarArbitration::GateLevel) {
            nets_[n].fabric = std::make_unique<logic::CrossbarFabric>(
                config.inputsPerNet, config.outputsPerNet);
        }
    }
}

void
CrossbarSystem::onArrival(std::size_t proc)
{
    dispatchNet(nets_[proc / inputsPerNet_]);
}

void
CrossbarSystem::dispatchNetGateLevel(Net &net)
{
    const std::size_t width = net.lastProcessor - net.firstProcessor;
    std::vector<bool> requesting(width, false);
    bool any_request = false;
    for (std::size_t i = 0; i < width; ++i) {
        requesting[i] = processorReady(net.firstProcessor + i);
        any_request |= requesting[i];
    }
    if (!any_request)
        return;
    // The resource controllers raise Y where a free resource sits
    // behind an idle bus; held columns are shielded by the latches
    // inside the fabric itself.
    std::vector<bool> available(net.buses.size(), false);
    bool any_bus = false;
    for (std::size_t j = 0; j < net.buses.size(); ++j) {
        available[j] = !net.buses[j].transmitting &&
                       net.buses[j].busyResources < resourcesPerBus_;
        any_bus |= available[j];
    }
    if (!any_bus)
        return;
    const auto result = net.fabric->requestCycle(requesting, available);
    for (std::size_t i = 0; i < width; ++i) {
        if (result.allocation[i] != logic::CrossbarFabric::npos)
            startOn(net, result.allocation[i], net.firstProcessor + i);
    }
}

void
CrossbarSystem::dispatchNet(Net &net)
{
    if (arbitration_ == XbarArbitration::GateLevel) {
        dispatchNetGateLevel(net);
        return;
    }
    // Keep pairing ready processors with eligible buses until one side
    // runs dry.  The crossbar is internally nonblocking, so any ready
    // processor can use any eligible bus.
    const std::size_t last = net.lastProcessor;
    for (;;) {
        const std::size_t first_ready = nextReady(net.firstProcessor, last);
        if (first_ready == last)
            return;
        std::size_t bus_index = net.buses.size();
        for (std::size_t b = 0; b < net.buses.size(); ++b) {
            const Bus &bus = net.buses[b];
            if (!bus.transmitting &&
                bus.busyResources < resourcesPerBus_) {
                bus_index = b;
                break;
            }
        }
        if (bus_index == net.buses.size())
            return;

        std::size_t winner = first_ready;
        switch (arbitration_) {
          case XbarArbitration::IndexPriority:
            // The ready set is walked in ascending processor order.
            break;
          case XbarArbitration::FifoArrival: {
            double best = headTask(winner).arrival;
            for (std::size_t proc = nextReady(first_ready + 1, last);
                 proc < last; proc = nextReady(proc + 1, last)) {
                const double arrival = headTask(proc).arrival;
                if (arrival < best) {
                    best = arrival;
                    winner = proc;
                }
            }
            break;
          }
          case XbarArbitration::RandomToken: {
            std::size_t contenders = 0;
            for (std::size_t proc = first_ready; proc < last;
                 proc = nextReady(proc + 1, last))
                ++contenders;
            std::uint64_t pick = rng().uniformInt(
                static_cast<std::uint64_t>(contenders));
            while (pick-- > 0)
                winner = nextReady(winner + 1, last);
            break;
          }
          case XbarArbitration::GateLevel:
            RSIN_PANIC("dispatchNet: gate-level mode dispatches through "
                       "the fabric");
        }
        startOn(net, bus_index, winner);
    }
}

void
CrossbarSystem::startOn(Net &net, std::size_t bus_index, std::size_t proc)
{
    workload::Task task = beginTransmission(proc);
    net.buses[bus_index].transmitting = true;
    task.routingAttempts = 1;
    task.resource = bus_index;
    sim().schedule(task.transmitTime, [this, &net, bus_index, proc,
                                       task = std::move(task)]() mutable {
        Bus &bus = net.buses[bus_index];
        bus.transmitting = false;
        ++bus.busyResources;
        RSIN_ASSERT(bus.busyResources <= resourcesPerBus_,
                    "CrossbarSystem: resource overcommit");
        if (net.fabric) {
            // Relinquish the crosspoint through a real reset cycle.
            std::vector<bool> releasing(
                net.lastProcessor - net.firstProcessor, false);
            releasing[proc - net.firstProcessor] = true;
            net.fabric->resetCycle(releasing);
        }
        endTransmission(proc);
        task.transmitEnd = sim().now();
        sim().schedule(task.serviceTime,
                       [this, &net, bus_index,
                        task = std::move(task)]() mutable {
                           --net.buses[bus_index].busyResources;
                           completeTask(std::move(task));
                           dispatchNet(net);
                       });
        dispatchNet(net);
    });
}

} // namespace rsin
