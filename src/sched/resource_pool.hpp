#pragma once

/**
 * @file
 * Resources attached to network output ports (paper Section II, Fig. 1).
 *
 * Each output port carries a bus with one or more resources.  The bus is
 * held only while a task is being transmitted; the resources stay busy
 * until service completes.  The pool also supports multiple resource
 * *types* (the paper's Section V extension): requests then carry a type
 * tag and only matching resources satisfy them.  The single-type study
 * uses type 0 everywhere.
 */

#include <cstddef>
#include <vector>

namespace rsin {
namespace sched {

/** Identifier of a resource within a ResourcePool. */
struct ResourceRef
{
    std::size_t port = 0;  ///< output port the resource hangs off
    std::size_t index = 0; ///< index within that port
    bool valid = false;
};

/** Free/busy bookkeeping for resources distributed over output ports. */
class ResourcePool
{
  public:
    /**
     * Uniform single-type pool: @p ports output ports with
     * @p per_port resources each (the paper's r).
     */
    ResourcePool(std::size_t ports, std::size_t per_port);

    /**
     * Typed pool: types[port][k] gives the type of the k-th resource on
     * @p port (ports may carry different counts and mixes).
     */
    explicit ResourcePool(std::vector<std::vector<std::size_t>> types);

    std::size_t ports() const { return typeOf_.size(); }
    std::size_t resourcesOn(std::size_t port) const;
    std::size_t totalResources() const { return total_; }

    /** Number of distinct types present (max type id + 1). */
    std::size_t typeCount() const { return typeCount_; }

    std::size_t typeOf(std::size_t port, std::size_t index) const;

    /** Free resources of @p type on @p port. */
    std::size_t freeCount(std::size_t port, std::size_t type = 0) const;

    /**
     * Free resources of every (port, type), [port * typeCount() + type],
     * for loops that read many ports.  Valid as long as the pool.
     */
    const std::size_t *freeCounts() const { return free_.data(); }

    /** Free resources of @p type across all ports. */
    std::size_t totalFree(std::size_t type = 0) const;

    /** True if some resource of @p type on @p port is free. */
    bool hasFree(std::size_t port, std::size_t type = 0) const;

    /** Claim a free resource of @p type on @p port (must exist). */
    ResourceRef claim(std::size_t port, std::size_t type = 0);

    /** Release a previously claimed resource. */
    void release(const ResourceRef &ref);

    /** Mark a specific resource busy (for constructed test scenarios). */
    void forceBusy(std::size_t port, std::size_t index);

    /** All resources back to free. */
    void clear();

  private:
    std::vector<std::vector<std::size_t>> typeOf_; ///< [port][idx] -> type
    std::vector<std::vector<bool>> busy_;          ///< [port][idx]
    std::vector<std::size_t> free_; ///< [port * typeCount_ + type]
    std::size_t typeCount_ = 1;
    std::size_t total_ = 0;
};

} // namespace sched
} // namespace rsin
