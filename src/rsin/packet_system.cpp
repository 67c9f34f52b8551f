#include "packet_system.hpp"

#include "common/error.hpp"

namespace rsin {

PacketOmegaSystem::PacketOmegaSystem(const SystemConfig &config,
                                     const workload::WorkloadParams &params,
                                     const SimOptions &options,
                                     const PacketOptions &packet_options)
    : SystemSimulation(config.processors, params, options),
      packetOptions_(packet_options)
{
    config.validate();
    RSIN_REQUIRE(config.network == NetworkClass::Omega ||
                     config.network == NetworkClass::Cube,
                 "PacketOmegaSystem: config must be a multistage "
                 "network, got ", config.str());
    RSIN_REQUIRE(config.networks == 1,
                 "PacketOmegaSystem: one network instance only");
    RSIN_REQUIRE(packetOptions_.packetsPerTask >= 1,
                 "PacketOmegaSystem: need at least one packet per task");
    RSIN_REQUIRE(packetOptions_.overhead >= 0.0,
                 "PacketOmegaSystem: negative overhead");
    const auto kind = config.network == NetworkClass::Omega
                          ? topology::MultistageKind::Omega
                          : topology::MultistageKind::IndirectCube;
    topo_ = std::make_unique<topology::MultistageNetwork>(
        kind, config.inputsPerNet);
    pool_ = std::make_unique<sched::ResourcePool>(
        config.outputsPerNet, config.resourcesPerPort);
    // The task's payload is 1/muN; split into P packets with per-packet
    // header overhead.
    const double packet_rate =
        static_cast<double>(packetOptions_.packetsPerTask) *
        params.muN / (1.0 + packetOptions_.overhead);
    network_ = std::make_unique<packet::BufferedNetwork>(
        sim(), *topo_, packet_rate, options.seed ^ 0x9e3779b97f4aULL);
    network_->onDelivery(
        [this](const packet::Packet &pkt) { packetDelivered(pkt); });
}

const packet::NetworkStats &
PacketOmegaSystem::networkStats() const
{
    return network_->stats();
}

void
PacketOmegaSystem::onArrival(std::size_t)
{
    dispatchNetwork();
}

void
PacketOmegaSystem::dispatchNetwork()
{
    const std::size_t last = processors();
    for (std::size_t proc = nextReady(0, last); proc < last;
         proc = nextReady(proc + 1, last)) {
        // Centralized address mapping: a uniformly random output port
        // with a free resource.
        std::vector<std::size_t> frees;
        for (std::size_t port = 0; port < pool_->ports(); ++port)
            if (pool_->hasFree(port))
                frees.push_back(port);
        if (frees.empty()) {
            noteRejection();
            continue;
        }
        const std::size_t dst = frees[rng().uniformInt(
            static_cast<std::uint64_t>(frees.size()))];
        admit(proc, dst);
    }
}

void
PacketOmegaSystem::admit(std::size_t proc, std::size_t dst_port)
{
    workload::Task task = beginTransmission(proc);
    task.routingAttempts = 1;
    task.resource = dst_port;
    task.boxesTraversed =
        static_cast<std::uint32_t>(topo_->stages());
    const std::uint64_t id = task.id;
    InFlight entry;
    entry.resource = pool_->claim(dst_port);
    entry.task = std::move(task);
    const auto [it, inserted] = inFlight_.emplace(id, std::move(entry));
    RSIN_ASSERT(inserted, "admit: duplicate task id");

    const std::uint32_t count = packetOptions_.packetsPerTask;
    for (std::uint32_t k = 0; k < count; ++k) {
        packet::Packet pkt;
        pkt.taskId = id;
        pkt.index = k;
        pkt.src = proc;
        pkt.dst = dst_port;
        const bool last = (k + 1 == count);
        network_->inject(pkt, last ? std::function<void()>([this, proc] {
            // The source link is free: the processor may admit its
            // next task (the packet-switching analogue of the RSIN
            // disconnection property).
            endTransmission(proc);
            dispatchNetwork();
        })
                                   : std::function<void()>());
    }
}

void
PacketOmegaSystem::packetDelivered(const packet::Packet &pkt)
{
    auto it = inFlight_.find(pkt.taskId);
    RSIN_ASSERT(it != inFlight_.end(), "delivery for unknown task");
    InFlight &entry = it->second;
    ++entry.delivered;
    if (entry.delivered < packetOptions_.packetsPerTask)
        return;
    // Fully reassembled: service begins only now (Section II: "a task
    // cannot be processed until it is completely received").
    entry.task.transmitEnd = sim().now();
    workload::Task task = std::move(entry.task);
    const sched::ResourceRef resource = entry.resource;
    inFlight_.erase(it);
    sim().schedule(task.serviceTime, [this, resource,
                                      task = std::move(task)]() mutable {
        pool_->release(resource);
        completeTask(std::move(task));
        dispatchNetwork();
    });
}

} // namespace rsin
