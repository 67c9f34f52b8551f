#pragma once

/**
 * @file
 * Clocked interchange-box model of distributed resource scheduling on a
 * multistage network -- the hardware algorithm of paper Fig. 10.
 *
 * Unlike OmegaRouter (which idealizes status as instantaneous), this
 * model propagates resource-availability information one stage per
 * clock through per-box, per-output-port availability registers, so
 * boxes can act on *stale* status: a request may be steered into a
 * subtree whose last free resource has just been taken, receive a
 * reject (J) at a later box, retreat, and be rerouted through the other
 * port -- exactly the behaviour the paper's Fig. 11 example walks
 * through (the rerouted request visits 5 boxes instead of 3, giving the
 * quoted 3.5-box average).
 *
 * Per clock tick, in Fig. 10's service order (release, reject, query,
 * resource-found):
 *   1. availability registers refresh from the status each downstream
 *      box/controller emitted on the previous tick;
 *   2. every box services the requests at its inputs: rejected-back
 *      requests first (they have waited longer), then new queries;
 *      forwarding zeroes the chosen port's register;
 *   3. requests reaching an output port claim a resource (C signal) or
 *      bounce if the status that led them there was stale.
 */

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "sched/omega_router.hpp"
#include "sched/resource_pool.hpp"
#include "topology/multistage.hpp"

namespace rsin {
namespace sched {

/** Final status of one request fed to the clocked scheduler. */
struct BoxedRequestOutcome
{
    std::size_t src = 0;
    bool served = false;
    std::size_t outputPort = 0;       ///< valid when served
    ResourceRef resource;             ///< valid when served
    std::size_t boxesVisited = 0;     ///< every box arrival, fwd or back
    std::size_t rejects = 0;          ///< J signals received
    std::size_t launches = 0;         ///< entries into the network
    topology::LinkPath path;          ///< claimed boundary links if served
};

/** Aggregate results of a scheduling round. */
struct BoxedRoundResult
{
    std::vector<BoxedRequestOutcome> outcomes; ///< one per request
    std::size_t ticksUsed = 0;
    std::size_t served = 0;
    std::size_t totalBoxVisits = 0;
    std::size_t totalRejects = 0;

    double
    meanBoxesPerServedRequest() const
    {
        std::size_t boxes = 0, n = 0;
        for (const auto &o : outcomes) {
            if (o.served) {
                boxes += o.boxesVisited;
                ++n;
            }
        }
        return n ? static_cast<double>(boxes) / static_cast<double>(n) : 0.0;
    }
};

/**
 * The clocked scheduler.  Holds references to an externally owned
 * circuit state and resource pool, mirroring OmegaRouter's interface so
 * the two can be compared on identical scenarios.
 */
class ClockedOmegaScheduler
{
  public:
    ClockedOmegaScheduler(const topology::MultistageNetwork &net,
                          RoutingPolicy policy =
                              RoutingPolicy::MostResources);

    /**
     * Run one complete scheduling round to quiescence: the given
     * processors all want one resource of type 0; the circuit/pool
     * state supplies free links and resources.  Served requests leave
     * their paths claimed in @p circuit and resources claimed in
     * @p pool (callers wanting a pure measurement can copy the state).
     *
     * @param max_ticks safety cap (default scales with network size)
     */
    BoxedRoundResult scheduleRound(topology::CircuitState &circuit,
                                   ResourcePool &pool,
                                   const std::vector<std::size_t> &sources,
                                   Rng &rng, std::size_t max_ticks = 0);

  private:
    struct ActiveRequest
    {
        std::size_t index;          ///< position in outcomes vector
        std::size_t src;
        std::size_t position;       ///< boundaries 0..position claimed
        bool retreating;            ///< reject travelling backwards
        topology::LinkPath path;
        std::vector<std::uint8_t> triedPorts; ///< bitmask per stage
    };

    const topology::MultistageNetwork *net_;
    RoutingPolicy policy_;
};

} // namespace sched
} // namespace rsin
