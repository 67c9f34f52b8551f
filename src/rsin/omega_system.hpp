#pragma once

/**
 * @file
 * Event-driven model of multistage dynamic-network RSINs (paper
 * Section V).  Each of the i networks is a j x j Omega (or indirect
 * binary n-cube) circuit-switched fabric with r resources per output
 * port.  Scheduling uses the distributed algorithm: every request is
 * steered box-by-box toward reachable free resources (OmegaRouter);
 * transmissions hold their path; the path is torn down when the data
 * transfer finishes while the resource continues serving.
 *
 * Two baseline scheduling modes support the paper's comparisons:
 *  - AddressRandomFree: a centralized scheduler hands each request the
 *    address of a uniformly random free resource; the network then
 *    routes by tags and blocks if the fixed path is unavailable
 *    (Section I's conventional address-mapping operation);
 *  - AddressFirstFree: same, but the scheduler always picks the
 *    lowest-numbered free output.
 */

#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "rsin/system.hpp"
#include "sched/omega_boxes.hpp"
#include "sched/omega_router.hpp"
#include "sched/resource_pool.hpp"
#include "topology/multistage.hpp"

namespace rsin {

/** How requests are matched with resources in a multistage system. */
enum class OmegaScheduling
{
    Distributed,       ///< RSIN algorithm with exact (fresh) status
    DistributedClocked, ///< RSIN algorithm on the clocked boxes of
                        ///< Fig. 10: stale status, rejects, reroutes
    AddressRandomFree, ///< centralized: random free output, tag routing
    AddressFirstFree,  ///< centralized: first free output, tag routing
};

/** How typed resources are laid out over the output ports (the open
 *  placement question of the paper's conclusion). */
enum class TypePlacement
{
    RoundRobin, ///< deal types cyclically across all ports (spread)
    Clustered,  ///< give each type a contiguous band of ports
};

/** Extra knobs for the multistage model. */
struct OmegaOptions
{
    OmegaScheduling scheduling = OmegaScheduling::Distributed;
    sched::RoutingPolicy policy = sched::RoutingPolicy::MostResources;
    TypePlacement placement = TypePlacement::RoundRobin;

    /**
     * Model the result-return path of Section II: "After the task is
     * serviced, the result is routed to the originating processor...
     * by a separate address-mapping network with parallel routing
     * since the destination address is known."  When enabled, a mirror
     * circuit-switched network carries one result at a time per output
     * port back to the task's processor; response times then include
     * the return queueing and transmission.  The queueing delay d of
     * the figures is unaffected (it ends when the forward connection
     * is established).
     */
    bool modelReturnNetwork = false;
    /** Return-transmission rate; 0 means "same as muN". */
    double muReturn = 0.0;
};

/** Simulation model for p/i x j x j OMEGA/r (or CUBE) systems. */
class OmegaSystem : public SystemSimulation
{
  public:
    OmegaSystem(const SystemConfig &config,
                const workload::WorkloadParams &params,
                const SimOptions &options,
                const OmegaOptions &omega_options = {},
                const ShardContext &shard = {});

  protected:
    void onArrival(std::size_t proc) override;

  private:
    struct Net
    {
        std::size_t firstProcessor = 0;
        std::unique_ptr<topology::CircuitState> circuit;
        std::unique_ptr<sched::ResourcePool> pool;
        /** Availability counts (Distributed scheduling only): every
         *  claim and release in this network stamps the output blocks
         *  it touched, and the router's reads bring the stale counts on
         *  their way up to date. */
        std::unique_ptr<sched::AvailabilityRegisters> avail;
        /** The circuit each input holds while it transmits (at most
         *  one), stages+1 links per input; kept here so the transmit
         *  completion stays small and the path off the heap. */
        std::vector<std::uint32_t> circuits;
        /** Return path (only when modelReturnNetwork is set). */
        std::unique_ptr<topology::CircuitState> returnCircuit;
        std::vector<std::deque<workload::Task>> returnQueues;
        std::vector<bool> returnBusy;
        /** The return circuit of each output port's result in flight,
         *  stages+1 links per port, as circuits for the forward
         *  network. */
        std::vector<std::uint32_t> returnCircuits;
        /** Every draw this network makes: routing ties, random
         *  addresses, clocked rounds, return times (networkRng). */
        Rng rng;
    };

    void dispatchNet(Net &net);
    void dispatchNetClocked(Net &net);
    void finishService(Net &net, workload::Task task);
    void dispatchReturns(Net &net);
    std::optional<sched::RouteResult> scheduleRequest(Net &net,
                                                      std::size_t input,
                                                      std::size_t type);
    void startOn(Net &net, std::size_t proc,
                 const sched::RouteResult &route);
    /** Slot @p i (stages+1 links) of a circuits table of a Net. */
    std::span<std::uint32_t> slot(std::vector<std::uint32_t> &circuits,
                                  std::size_t i) const;

    /** The wiring all networks share, built once with its
     *  reachability and block tables, and the stateless schedulers
     *  over it (the clocked boxes in DistributedClocked scheduling
     *  only). */
    std::unique_ptr<topology::MultistageNetwork> topo_;
    std::unique_ptr<sched::OmegaRouter> router_;
    std::unique_ptr<sched::ClockedOmegaScheduler> clocked_;
    std::vector<Net> nets_;
    std::size_t inputsPerNet_ = 1;
    OmegaOptions omegaOptions_;
};

} // namespace rsin
