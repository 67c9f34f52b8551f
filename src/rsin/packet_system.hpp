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
 * The network is the Dias & Jump [8] buffered substrate: every
 * directed link -- the processor injection links at boundary 0 and
 * each box output at boundaries 1..n -- holds a FIFO queue and
 * transmits one packet at a time.  Packets are routed by destination
 * tag, so a task's packets follow the unique banyan path in order and
 * arrive in order.
 *
 * Scheduling is centralized address mapping (packet switching needs a
 * destination up front): each admitted task is assigned a uniformly
 * random output port with a free resource.
 */

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <vector>

#include "rsin/system.hpp"
#include "sched/resource_pool.hpp"
#include "topology/multistage.hpp"

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
    /** Network-level statistics. */
    struct NetworkStats
    {
        std::uint64_t packetsDelivered = 0;
    };

    PacketOmegaSystem(const SystemConfig &config,
                      const workload::WorkloadParams &params,
                      const SimOptions &options,
                      const PacketOptions &packet_options = {});

    const NetworkStats &networkStats() const { return stats_; }

  protected:
    void onArrival(std::size_t proc) override;

  private:
    /** One packet queued or transmitting on a link. */
    struct Packet
    {
        std::uint64_t taskId = 0;
        std::uint32_t index = 0; ///< position within the task
        std::size_t dst = 0;
    };
    /** A directed link; while busy, its head packet is transmitting. */
    struct Link
    {
        std::deque<Packet> queue;
        bool busy = false;
    };
    struct InFlight
    {
        workload::Task task;
        sched::ResourceRef resource;
        std::uint32_t delivered = 0;
    };

    /** Start everything the state permits (the model has one network,
     *  so every event re-dispatches all of it). */
    void dispatchNetwork();
    void admit(std::size_t proc, std::size_t dst_port);
    Link &linkAt(std::size_t boundary, std::size_t link);
    /** Begin transmitting the head packet of an idle, non-empty link. */
    void startHop(std::size_t boundary, std::size_t link);
    void finishHop(std::size_t boundary, std::size_t link);
    void packetDelivered(const Packet &pkt);

    std::unique_ptr<topology::MultistageNetwork> topo_;
    std::unique_ptr<sched::ResourcePool> pool_;
    PacketOptions packetOptions_;
    /** Per-hop transmission rate of one packet. */
    double packetRate_ = 0.0;
    /** The per-hop exponential times, a stream of their own. */
    Rng hopRng_;
    /** Links boundary-major: boundary * size + link (0 = injection). */
    std::vector<Link> links_;
    std::map<std::uint64_t, InFlight> inFlight_; ///< by task id
    NetworkStats stats_;
};

} // namespace rsin
