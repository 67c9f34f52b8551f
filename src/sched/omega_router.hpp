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
 * AvailabilityRegisters keeps those counts exact wherever a request
 * reads them, in the spirit of the boxes of Fig. 10, which run a status
 * phase before each request phase.  A claim or release at output port
 * d can only change the counts of links that reach d.  Every wiring is
 * a banyan, so the outputs a boundary-b link reaches form one of 2^b
 * nested blocks, and those links are the ones whose block holds d: one
 * block per boundary (MultistageNetwork::outputBlocks).
 * A change therefore stamps those stages+1 blocks with a clock; a read
 * finds a register stale when its block changed after the register was
 * last computed, and recomputes it from its box's two outputs,
 * recursively, so work follows the registers that are read.  A route
 * validates only its entry register: below a current register with a
 * positive count every register is current too, because blocks nest,
 * so the descent reads stored counts.  The from-scratch pass over
 * every boundary builds the registers, backs the stateless OmegaRouter
 * calls, and is the oracle the validated registers are tested against.
 *
 * The clocked, stale-status hardware realization of the same algorithm
 * (Fig. 10) lives in omega_boxes.hpp; the two are compared in tests.
 */

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/contract.hpp"
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
    /** User-provided, so that building one in place (an optional's
     *  emplace) does not zero the path's unused links first. */
    RouteResult() noexcept {}

    topology::LinkPath path;       ///< boundary links, size stages()+1
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
 *
 * refresh() only stamps the output blocks that hold the port
 * (MultistageNetwork::outputBlocks); count() brings a stale register
 * up to date before returning it, and stored() trusts the caller to
 * read below a validated one.  Reads therefore write the register
 * cache, so one set of registers must not be read from two threads at
 * once.
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
        return read(type, boundary * width_ + link);
    }

    /**
     * The count of (boundary, link) as last computed, not validated.
     * It is current below a register that count() found positive: that
     * register read its box's two outputs when it was computed, and a
     * change under either output's block since would have staled it
     * too, because blocks nest.  So after validating its entry
     * register, a descent that steps only into positive counts may read
     * every register on its way down with this.  @p type must be in the
     * pool.
     */
    std::size_t
    stored(std::size_t type, std::size_t boundary, std::size_t link) const
    {
        const std::size_t seg = boundary * width_ + link;
        RSIN_INVARIANT(type < types_ && boundary < boundaries_ &&
                           link < width_ && current(type, seg),
                       "availability register (", type, ", ", boundary,
                       ", ", link, ") read stale or out of range");
        return counts_[type * segments_ + seg];
    }

    /**
     * A path ending at, or a resource on, output @p port changed state:
     * mark the counts above @p port stale for every type.
     */
    void refresh(std::size_t port);

    /** As refresh(port), for a change that only touched type @p type
     *  (a resource claim or release, no segment changed). */
    void refresh(std::size_t port, std::size_t type);

    /** Same counts, as read (registers over the same-shaped network). */
    bool operator==(const AvailabilityRegisters &other) const;

  private:
    /** True when every register current() reports as current holds
     *  the count of @p rebuilt, built from scratch on the same state.
     *  Stale registers are left for their next read, so checking this
     *  after a refresh keeps the registers as lazy as without it. */
    bool currentAgree(const AvailabilityRegisters &rebuilt) const;

    /** Stamp the blocks holding @p port for types [first, last). */
    void stamp(std::size_t port, std::size_t first, std::size_t last);

    /** True when the register of segment @p seg (boundary * n + link)
     *  was computed after the last change under its block. */
    bool
    current(std::size_t type, std::size_t seg) const
    {
        // Clock 0: nothing has changed since the from-scratch build, and
        // the stamps are not allocated yet.
        return clock_ == 0 ||
               stamps_[type * segments_ + seg] >=
                   changed_[type * blocks_ + linkBlocks_[seg]];
    }

    /** The register of segment @p seg, recomputed first if stale. */
    std::uint32_t
    read(std::size_t type, std::size_t seg) const
    {
        return current(type, seg) ? counts_[type * segments_ + seg]
                                  : recompute(type, seg);
    }

    /** Recompute the register of segment @p seg from its busy flag, the
     *  pool (an output bus) or its box's two outputs, read in turn. */
    std::uint32_t recompute(std::size_t type, std::size_t seg) const;

    const topology::CircuitState *circuit_;
    const ResourcePool *pool_;
    std::size_t width_ = 0;      ///< n
    std::size_t boundaries_ = 0; ///< stages + 1
    std::size_t segments_ = 0;   ///< boundaries * n, registers per type
    std::size_t types_ = 0;
    std::size_t blocks_ = 0;     ///< output blocks per type
    /** Flat views of what recompute reads, each indexed by segment
     *  (boundary * n + link) or output port like the register: the
     *  circuit's busy flags, the pool's free counts ([port * types +
     *  type]) and the wiring's stage positions. */
    const std::uint8_t *busy_ = nullptr;
    const std::size_t *free_ = nullptr;
    const std::uint32_t *positions_ = nullptr;
    /** The network's block of every (boundary, link); see
     *  MultistageNetwork::linkBlocks. */
    const std::uint32_t *linkBlocks_ = nullptr;
    /** Bumped by every refresh; 0 until the first. */
    std::uint64_t clock_ = 0;
    /** [type][boundary][link], flattened.  32-bit entries keep the
     *  working set small (the pool size is checked to fit). */
    mutable std::vector<std::uint32_t> counts_;
    /** Clock at which each count was last computed (same layout);
     *  allocated by the first refresh. */
    mutable std::vector<std::uint64_t> stamps_;
    /** [type][block]: clock of the last change under each block. */
    std::vector<std::uint64_t> changed_;
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
     * tryRoute against registers kept across calls: a failed attempt
     * reads one register, and a success stamps the blocks holding the
     * claimed output port.  @p circuit and @p pool must be the
     * objects @p registers watches.
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
