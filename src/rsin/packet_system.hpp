#pragma once

/**
 * @file
 * Packet-switched counterpart of the Omega RSIN (paper Section II's
 * road not taken).  Tasks are split into a configurable number of
 * packets and store-and-forwarded through a buffered multistage
 * network; because a task "cannot be processed until it is completely
 * received", the resource sits reserved-but-idle until the last packet
 * reassembles -- the utilization loss the paper cites for preferring
 * circuit switching.
 *
 * Scheduling is centralized address mapping (packet switching needs a
 * destination up front): each admitted task is assigned a uniformly
 * random output port with a free resource.
 */

#include <cstdint>
#include <map>
#include <memory>

#include "packet/buffered_network.hpp"
#include "rsin/system.hpp"
#include "sched/resource_pool.hpp"

namespace rsin {

/** Knobs for the packet-switched model. */
struct PacketOptions
{
    /** Packets per task (>= 1). */
    std::uint32_t packetsPerTask = 4;
    /**
     * Per-packet overhead fraction: headers/rerouting cost.  The
     * per-hop packet rate is packetsPerTask * muN / (1 + overhead),
     * so the whole task still carries 1/muN of payload per hop.
     */
    double overhead = 0.1;
};

/** Packet-switched Omega system (single network instance). */
class PacketOmegaSystem : public SystemSimulation
{
  public:
    PacketOmegaSystem(const SystemConfig &config,
                      const workload::WorkloadParams &params,
                      const SimOptions &options,
                      const PacketOptions &packet_options = {});

    /** Network-level statistics (hops, queueing, depth). */
    const packet::NetworkStats &networkStats() const;

  protected:
    void onArrival(std::size_t proc) override;

  private:
    /** Start everything the state permits (the model has one network,
     *  so every event re-dispatches all of it). */
    void dispatchNetwork();

    struct InFlight
    {
        workload::Task task;
        sched::ResourceRef resource;
        std::uint32_t delivered = 0;
    };

    void admit(std::size_t proc, std::size_t dst_port);
    void packetDelivered(const packet::Packet &pkt);

    std::unique_ptr<topology::MultistageNetwork> topo_;
    std::unique_ptr<sched::ResourcePool> pool_;
    std::unique_ptr<packet::BufferedNetwork> network_;
    std::map<std::uint64_t, InFlight> inFlight_; ///< by task id
    PacketOptions packetOptions_;
};

} // namespace rsin
