#include "resource_pool.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace rsin {
namespace sched {

ResourcePool::ResourcePool(std::size_t ports, std::size_t per_port)
    : ResourcePool(std::vector<std::vector<std::size_t>>(
          ports, std::vector<std::size_t>(per_port, 0)))
{
    RSIN_REQUIRE(ports >= 1, "ResourcePool: need at least one port");
    RSIN_REQUIRE(per_port >= 1, "ResourcePool: need at least one resource");
}

ResourcePool::ResourcePool(std::vector<std::vector<std::size_t>> types)
    : typeOf_(std::move(types))
{
    RSIN_REQUIRE(!typeOf_.empty(), "ResourcePool: need at least one port");
    for (const auto &port_types : typeOf_) {
        for (std::size_t t : port_types)
            typeCount_ = std::max(typeCount_, t + 1);
        total_ += port_types.size();
    }
    busy_.resize(typeOf_.size());
    free_.assign(typeOf_.size() * typeCount_, 0);
    for (std::size_t port = 0; port < typeOf_.size(); ++port) {
        busy_[port].assign(typeOf_[port].size(), false);
        for (std::size_t t : typeOf_[port])
            ++free_[port * typeCount_ + t];
    }
}

std::size_t
ResourcePool::resourcesOn(std::size_t port) const
{
    RSIN_REQUIRE(port < typeOf_.size(), "resourcesOn: bad port");
    return typeOf_[port].size();
}

std::size_t
ResourcePool::typeOf(std::size_t port, std::size_t index) const
{
    RSIN_REQUIRE(port < typeOf_.size() && index < typeOf_[port].size(),
                 "typeOf: out of range");
    return typeOf_[port][index];
}

std::size_t
ResourcePool::freeCount(std::size_t port, std::size_t type) const
{
    RSIN_REQUIRE(port < typeOf_.size(), "freeCount: bad port");
    if (type >= typeCount_)
        return 0;
    return free_[port * typeCount_ + type];
}

std::size_t
ResourcePool::totalFree(std::size_t type) const
{
    std::size_t n = 0;
    for (std::size_t port = 0; port < typeOf_.size(); ++port)
        n += freeCount(port, type);
    return n;
}

bool
ResourcePool::hasFree(std::size_t port, std::size_t type) const
{
    return freeCount(port, type) > 0;
}

ResourceRef
ResourcePool::claim(std::size_t port, std::size_t type)
{
    RSIN_REQUIRE(port < typeOf_.size(), "claim: bad port");
    for (std::size_t idx = 0; idx < typeOf_[port].size(); ++idx) {
        if (!busy_[port][idx] && typeOf_[port][idx] == type) {
            busy_[port][idx] = true;
            --free_[port * typeCount_ + type];
            return {port, idx, true};
        }
    }
    RSIN_FATAL("claim: no free resource of type ", type, " on port ", port);
}

void
ResourcePool::release(const ResourceRef &ref)
{
    RSIN_REQUIRE(ref.valid, "release: invalid reference");
    RSIN_REQUIRE(ref.port < typeOf_.size() &&
                     ref.index < typeOf_[ref.port].size(),
                 "release: out of range");
    RSIN_REQUIRE(busy_[ref.port][ref.index], "release: resource not busy");
    busy_[ref.port][ref.index] = false;
    ++free_[ref.port * typeCount_ + typeOf_[ref.port][ref.index]];
}

void
ResourcePool::forceBusy(std::size_t port, std::size_t index)
{
    RSIN_REQUIRE(port < typeOf_.size() && index < typeOf_[port].size(),
                 "forceBusy: out of range");
    RSIN_REQUIRE(!busy_[port][index], "forceBusy: already busy");
    busy_[port][index] = true;
    --free_[port * typeCount_ + typeOf_[port][index]];
}

void
ResourcePool::clear()
{
    std::fill(free_.begin(), free_.end(), 0);
    for (std::size_t port = 0; port < typeOf_.size(); ++port) {
        std::fill(busy_[port].begin(), busy_[port].end(), false);
        for (std::size_t t : typeOf_[port])
            ++free_[port * typeCount_ + t];
    }
}

} // namespace sched
} // namespace rsin
