#include "omega_router.hpp"

#include "common/contract.hpp"
#include "common/error.hpp"

namespace rsin {
namespace sched {

AvailabilityRegisters::AvailabilityRegisters(
    const topology::CircuitState &circuit, const ResourcePool &pool)
    : circuit_(&circuit), pool_(&pool), width_(circuit.network().size()),
      boundaries_(circuit.network().stages() + 1),
      segments_(boundaries_ * width_), types_(pool.typeCount()),
      blocks_(circuit.network().blockCount()),
      busy_(circuit.busyFlags()), free_(pool.freeCounts()),
      positions_(circuit.network().stagePositions()),
      linkBlocks_(circuit.network().linkBlocks(0)),
      counts_(types_ * segments_, 0)
{
    const topology::MultistageNetwork &net = circuit.network();
    RSIN_REQUIRE(pool.ports() == width_,
                 "AvailabilityRegisters: pool ports != network outputs");
    RSIN_REQUIRE(pool.totalResources() <= UINT32_MAX,
                 "AvailabilityRegisters: pool too large for the counts");
    // The from-scratch backward pass: boundary `stages` holds each free
    // output bus's free resources, and every free boundary-b link sees
    // the sum of its box's two boundary-(b+1) outputs.  It reads through
    // the checked accessors, not the flat views recompute uses, so the
    // two stay independent.
    const std::size_t stages = boundaries_ - 1;
    for (std::size_t type = 0; type < types_; ++type) {
        std::uint32_t *plane = counts_.data() + type * segments_;
        std::uint32_t *last = plane + stages * width_;
        for (std::size_t l = 0; l < width_; ++l)
            last[l] = circuit.segmentFree(stages, l)
                          ? static_cast<std::uint32_t>(
                                pool.freeCount(l, type))
                          : 0;
        for (std::size_t b = stages; b-- > 0;) {
            std::uint32_t *row = plane + b * width_;
            const std::uint32_t *below = row + width_;
            for (std::size_t l = 0; l < width_; ++l) {
                if (!circuit.segmentFree(b, l))
                    continue;
                const std::size_t box = net.boxOf(b, l);
                row[l] = below[net.outputLink(box, 0)] +
                         below[net.outputLink(box, 1)];
            }
        }
    }
}

void
AvailabilityRegisters::refresh(std::size_t port)
{
    RSIN_REQUIRE(port < width_, "refresh: bad output port");
    stamp(port, 0, types_);
    RSIN_INVARIANT(currentAgree(AvailabilityRegisters(*circuit_, *pool_)),
                   "availability registers drifted from a rebuild after "
                   "a change at output port ", port);
}

void
AvailabilityRegisters::refresh(std::size_t port, std::size_t type)
{
    RSIN_REQUIRE(port < width_, "refresh: bad output port");
    RSIN_REQUIRE(type < types_, "refresh: type not in the pool");
    stamp(port, type, type + 1);
    RSIN_INVARIANT(currentAgree(AvailabilityRegisters(*circuit_, *pool_)),
                   "availability registers drifted from a rebuild after "
                   "a change of type ", type, " at output port ", port);
}

bool
AvailabilityRegisters::operator==(const AvailabilityRegisters &other) const
{
    if (types_ != other.types_ || boundaries_ != other.boundaries_ ||
        width_ != other.width_)
        return false;
    for (std::size_t type = 0; type < types_; ++type)
        for (std::size_t b = 0; b < boundaries_; ++b)
            for (std::size_t l = 0; l < width_; ++l)
                if (count(type, b, l) != other.count(type, b, l))
                    return false;
    return true;
}

bool
AvailabilityRegisters::currentAgree(
    const AvailabilityRegisters &rebuilt) const
{
    for (std::size_t type = 0; type < types_; ++type)
        for (std::size_t seg = 0; seg < segments_; ++seg)
            if (current(type, seg) &&
                counts_[type * segments_ + seg] !=
                    rebuilt.counts_[type * segments_ + seg])
                return false;
    return true;
}

void
AvailabilityRegisters::stamp(std::size_t port, std::size_t first,
                             std::size_t last)
{
    if (clock_ == 0) {
        // Every register is fresh as built, so all of them carry stamp
        // 0 and the first change is clock 1.
        stamps_.assign(counts_.size(), 0);
        changed_.assign(types_ * blocks_, 0);
    }
    ++clock_;
    const std::uint32_t *blocks = circuit_->network().outputBlocks(port);
    for (std::size_t type = first; type < last; ++type) {
        std::uint64_t *changed = changed_.data() + type * blocks_;
        for (std::size_t b = 0; b < boundaries_; ++b)
            changed[blocks[b]] = clock_;
    }
}

std::uint32_t
AvailabilityRegisters::recompute(std::size_t type, std::size_t seg) const
{
    // A held segment reads 0 whatever lies below it; its box's outputs
    // are left as they are, for the read that next reaches them.
    std::uint32_t value = 0;
    if (busy_[seg] == 0) {
        const std::size_t bus = segments_ - width_; // first output bus
        if (seg >= bus) {
            value = static_cast<std::uint32_t>(
                free_[(seg - bus) * types_ + type]);
        } else {
            // The box's outputs, at the start of the next boundary's row
            // plus the box's first output link.
            const std::size_t up = (seg | (width_ - 1)) + 1 +
                                   (positions_[seg] & ~std::uint32_t{1});
            value = read(type, up) + read(type, up + 1);
        }
    }
    const std::size_t reg = type * segments_ + seg;
    counts_[reg] = value;
    stamps_[reg] = clock_;
    return value;
}

OmegaRouter::OmegaRouter(const topology::MultistageNetwork &net,
                         RoutingPolicy policy)
    : net_(&net), policy_(policy)
{
}

std::size_t
OmegaRouter::availability(const topology::CircuitState &circuit,
                          const ResourcePool &pool, std::size_t src,
                          std::size_t type) const
{
    RSIN_REQUIRE(src < net_->size(), "availability: bad input");
    return AvailabilityRegisters(circuit, pool).count(type, 0, src);
}

std::optional<RouteResult>
OmegaRouter::tryRoute(topology::CircuitState &circuit, ResourcePool &pool,
                      std::size_t src, Rng &rng, std::size_t type) const
{
    return descend(AvailabilityRegisters(circuit, pool), circuit, pool,
                   src, rng, type);
}

std::optional<RouteResult>
OmegaRouter::tryRoute(AvailabilityRegisters &registers,
                      topology::CircuitState &circuit, ResourcePool &pool,
                      std::size_t src, Rng &rng, std::size_t type) const
{
    RSIN_REQUIRE(&registers.circuit() == &circuit &&
                     &registers.pool() == &pool,
                 "tryRoute: the registers watch another network");
    auto route = descend(registers, circuit, pool, src, rng, type);
    if (route)
        registers.refresh(route->outputPort);
    return route;
}

std::optional<RouteResult>
OmegaRouter::descend(const AvailabilityRegisters &avail,
                     topology::CircuitState &circuit, ResourcePool &pool,
                     std::size_t src, Rng &rng, std::size_t type) const
{
    RSIN_REQUIRE(src < net_->size(), "tryRoute: bad input");
    // Built in place and returned by name, so the path is written once
    // here and copied once, by the caller that keeps it.
    std::optional<RouteResult> result;
    if (avail.count(type, 0, src) == 0)
        return result;

    // The entry register is current and positive, so every register the
    // descent steps through below it is too (AvailabilityRegisters::
    // stored): read them as stored.
    RouteResult &route = result.emplace();
    const std::size_t n = net_->size();
    const std::uint32_t *positions = net_->stagePositions();
    std::size_t link = src;
    route.path.push_back(link);
    for (std::size_t stage = 0; stage < net_->stages(); ++stage) {
        const std::size_t up =
            positions[stage * n + link] & ~std::uint32_t{1};
        const std::size_t down = up + 1;
        const std::size_t a0 = avail.stored(type, stage + 1, up);
        const std::size_t a1 = avail.stored(type, stage + 1, down);
        RSIN_ASSERT(a0 + a1 > 0, "tryRoute: availability bookkeeping hole");
        std::size_t q;
        if (a0 == 0) {
            q = 1;
        } else if (a1 == 0) {
            q = 0;
        } else {
            switch (policy_) {
              case RoutingPolicy::MostResources:
                // The S registers carry counts; take the richer subtree,
                // breaking exact ties toward the upper port.
                q = a1 > a0 ? 1 : 0;
                break;
              case RoutingPolicy::PreferUpper:
                q = 0;
                break;
              case RoutingPolicy::RandomTie:
                q = rng.uniformInt(std::uint64_t{2});
                break;
              default:
                RSIN_PANIC("tryRoute: unknown policy");
            }
        }
        link = q == 0 ? up : down;
        route.path.push_back(link);
        ++route.boxesTraversed;
    }
    route.outputPort = link;
    circuit.claim(route.path);
    route.resource = pool.claim(route.outputPort, type);
    return result;
}

std::optional<RouteResult>
OmegaRouter::tryRouteAddressed(topology::CircuitState &circuit,
                               ResourcePool &pool, std::size_t src,
                               std::size_t dst, std::size_t type) const
{
    RSIN_REQUIRE(src < net_->size() && dst < net_->size(),
                 "tryRouteAddressed: bad endpoints");
    if (!pool.hasFree(dst, type))
        return std::nullopt;
    RouteResult result;
    result.path = net_->path(src, dst);
    if (!circuit.pathFree(result.path))
        return std::nullopt;
    result.outputPort = dst;
    result.boxesTraversed = net_->stages();
    circuit.claim(result.path);
    result.resource = pool.claim(dst, type);
    return result;
}

} // namespace sched
} // namespace rsin
