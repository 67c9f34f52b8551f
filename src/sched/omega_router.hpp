#pragma once

/**
 * @file
 * Distributed resource routing over a circuit-switched multistage
 * network (paper Section V), in the "status information is current"
 * idealization that the queueing simulations use (assumption (c):
 * negligible propagation delay).
 *
 * Availability registers: every interchange box keeps, per output port
 * and per resource type, the number of free resources reachable through
 * that port over currently-free links.  A request entering the network
 * is steered at every box toward a port with positive availability; the
 * claimed path's segments and the claimed resource are marked busy, so
 * subsequent requests see updated status.  Because each output is
 * reached by a unique path (banyan property), the availability counts
 * are exact sums and greedy steering always terminates at a free
 * resource when the entry availability is positive.
 *
 * AvailabilityRegisters keeps those counts current across events the
 * way the boxes of Fig. 10 do: status travels backwards only when it
 * changes.  A claim or release at output port d can only change the
 * counts of links that reach d -- a cone of 2n-1 links in an n x n
 * banyan -- so only that cone is recomputed.  The from-scratch pass
 * over every boundary builds the registers, backs the stateless
 * OmegaRouter calls, and is the oracle the incremental registers are
 * tested against.
 *
 * The clocked, stale-status hardware realization of the same algorithm
 * (Fig. 10) lives in omega_boxes.hpp; the two are compared in tests.
 */

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "sched/resource_pool.hpp"
#include "topology/multistage.hpp"

namespace rsin {
namespace sched {

/** Tie-break policy when both box ports lead to free resources. */
enum class RoutingPolicy
{
    MostResources, ///< S-register counts: take the richer subtree
    PreferUpper,   ///< deterministic: port 0 when possible
    RandomTie,     ///< break ties uniformly at random
};

/** Outcome of a successful route. */
struct RouteResult
{
    std::vector<std::size_t> path; ///< boundary links, size stages()+1
    std::size_t outputPort = 0;    ///< port whose bus now transmits
    ResourceRef resource;          ///< the claimed resource
    std::size_t boxesTraversed = 0;
};

/**
 * Per-boundary-link availability counts of one network, one set per
 * resource type: count(t, b, l) is the number of free type-t resources
 * reachable when about to traverse segment (b, l), zero when that
 * segment is itself held.  Watches an externally owned circuit state
 * and pool (both must outlive it); after every change to either, the
 * owner calls refresh() with the output port the change sits under.
 */
class AvailabilityRegisters
{
  public:
    /** Build the registers of every type in @p pool from scratch. */
    AvailabilityRegisters(const topology::CircuitState &circuit,
                          const ResourcePool &pool);

    const topology::CircuitState &circuit() const { return *circuit_; }
    const ResourcePool &pool() const { return *pool_; }

    /** Free type-@p type resources reachable through (boundary, link);
     *  0 for a type the pool does not carry. */
    std::size_t
    count(std::size_t type, std::size_t boundary, std::size_t link) const
    {
        RSIN_ASSERT(boundary < boundaries_ && link < width_,
                    "AvailabilityRegisters::count: out of range");
        if (type >= types_)
            return 0;
        return counts_[(type * boundaries_ + boundary) * width_ + link];
    }

    /**
     * A path ending at, or a resource on, output @p port changed state:
     * recompute the cone of links upstream of @p port for every type.
     */
    void refresh(std::size_t port);

    /** As refresh(port), for a change that only touched type @p type
     *  (a resource claim or release, no segment changed). */
    void refresh(std::size_t port, std::size_t type);

    /** Same counts (registers over the same-shaped network). */
    bool operator==(const AvailabilityRegisters &other) const
    {
        return counts_ == other.counts_;
    }

  private:
    /** Recompute type @p type's counts in the cone above @p port. */
    void refreshCone(std::size_t port, std::size_t type);

    const topology::CircuitState *circuit_;
    const ResourcePool *pool_;
    std::size_t width_ = 0;      ///< n
    std::size_t boundaries_ = 0; ///< stages + 1
    std::size_t types_ = 0;
    /** [type][boundary][link], flattened.  32-bit entries keep the
     *  refresh's working set small (the pool size is checked to fit). */
    std::vector<std::uint32_t> counts_;
    /** Scratch for refresh: the cone's links level by level, boundary
     *  `stages` first -- 1, 2, 4, ..., n links, 2n-1 in all. */
    std::vector<std::uint32_t> cone_;
};

/**
 * Greedy distributed router with exact (instantaneous) status.
 * Owns neither the circuit state nor the pool; callers hold them so the
 * same objects can feed several cooperating components.
 */
class OmegaRouter
{
  public:
    OmegaRouter(const topology::MultistageNetwork &net,
                RoutingPolicy policy = RoutingPolicy::MostResources);

    RoutingPolicy policy() const { return policy_; }

    /**
     * Availability of type-@p type resources from input @p src given
     * current circuit and pool state: the count of free resources
     * reachable over free segments.  Positive iff tryRoute would
     * succeed.
     */
    std::size_t availability(const topology::CircuitState &circuit,
                             const ResourcePool &pool, std::size_t src,
                             std::size_t type = 0) const;

    /**
     * Attempt to connect input @p src to any free resource of
     * @p type.  On success the path segments are claimed in
     * @p circuit, the resource in @p pool, and the result returned.
     */
    std::optional<RouteResult> tryRoute(topology::CircuitState &circuit,
                                        ResourcePool &pool,
                                        std::size_t src, Rng &rng,
                                        std::size_t type = 0) const;

    /**
     * tryRoute against registers kept current across calls: a failed
     * attempt costs one register read, and a success refreshes only the
     * cone above the claimed output port.  @p circuit and @p pool must
     * be the objects @p registers watches.
     */
    std::optional<RouteResult> tryRoute(AvailabilityRegisters &registers,
                                        topology::CircuitState &circuit,
                                        ResourcePool &pool,
                                        std::size_t src, Rng &rng,
                                        std::size_t type = 0) const;

    /**
     * Address-mapping baseline: route @p src to the *specific* output
     * @p dst (routing tags); fails if any path segment is busy or no
     * type-@p type resource is free there.  Used for the Section V
     * blocking-probability comparison.
     */
    std::optional<RouteResult>
    tryRouteAddressed(topology::CircuitState &circuit, ResourcePool &pool,
                      std::size_t src, std::size_t dst,
                      std::size_t type = 0) const;

  private:
    /**
     * The greedy descent: steer from @p src toward positive counts and
     * claim the path and a resource; nullopt when the entry count is 0.
     */
    std::optional<RouteResult> descend(const AvailabilityRegisters &avail,
                                       topology::CircuitState &circuit,
                                       ResourcePool &pool, std::size_t src,
                                       Rng &rng, std::size_t type) const;

    const topology::MultistageNetwork *net_;
    RoutingPolicy policy_;
};

} // namespace sched
} // namespace rsin
