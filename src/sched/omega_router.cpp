#include "omega_router.hpp"

#include "common/contract.hpp"
#include "common/error.hpp"

namespace rsin {
namespace sched {

AvailabilityRegisters::AvailabilityRegisters(
    const topology::CircuitState &circuit, const ResourcePool &pool)
    : circuit_(&circuit), pool_(&pool), width_(circuit.network().size()),
      boundaries_(circuit.network().stages() + 1),
      types_(pool.typeCount()),
      counts_(types_ * boundaries_ * width_, 0)
{
    const topology::MultistageNetwork &net = circuit.network();
    RSIN_REQUIRE(pool.ports() == width_,
                 "AvailabilityRegisters: pool ports != network outputs");
    RSIN_REQUIRE(pool.totalResources() <= UINT32_MAX,
                 "AvailabilityRegisters: pool too large for the counts");
    // The from-scratch backward pass: boundary `stages` holds each free
    // output bus's free resources, and every free boundary-b link sees
    // the sum of its box's two boundary-(b+1) outputs.
    const std::size_t stages = boundaries_ - 1;
    for (std::size_t type = 0; type < types_; ++type) {
        std::uint32_t *plane =
            counts_.data() + type * boundaries_ * width_;
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
    for (std::size_t type = 0; type < types_; ++type)
        refreshCone(port, type);
    RSIN_INVARIANT(*this == AvailabilityRegisters(*circuit_, *pool_),
                   "availability registers drifted from a rebuild after "
                   "a change at output port ", port);
}

void
AvailabilityRegisters::refresh(std::size_t port, std::size_t type)
{
    RSIN_REQUIRE(port < width_, "refresh: bad output port");
    RSIN_REQUIRE(type < types_, "refresh: type not in the pool");
    refreshCone(port, type);
    RSIN_INVARIANT(*this == AvailabilityRegisters(*circuit_, *pool_),
                   "availability registers drifted from a rebuild after "
                   "a change of type ", type, " at output port ", port);
}

void
AvailabilityRegisters::refreshCone(std::size_t port, std::size_t type)
{
    const topology::MultistageNetwork &net = circuit_->network();
    const std::size_t stages = boundaries_ - 1;
    std::uint32_t *plane = counts_.data() + type * boundaries_ * width_;
    cone_.resize(2 * width_ - 1);
    std::uint32_t *cone = cone_.data();

    plane[stages * width_ + port] =
        circuit_->segmentFree(stages, port)
            ? static_cast<std::uint32_t>(pool_->freeCount(port, type))
            : 0;
    cone[0] = static_cast<std::uint32_t>(port);

    // Level by level toward the inputs: a boundary-(b+1) link m of the
    // cone is an output of stage-b box m/2, whose two inputs join the
    // cone at boundary b and both see the sum of that box's outputs
    // m & ~1 and m | 1.  Each level is final before the next reads it.
    // (A non-banyan wiring can list a link twice; recomputing it again
    // writes the same value.)
    std::size_t begin = 0;
    std::size_t end = 1;
    for (std::size_t b = stages; b-- > 0;) {
        const std::uint32_t *inputs = net.inputLinks(b);
        const std::uint8_t *busy = circuit_->busyFlags(b);
        std::uint32_t *row = plane + b * width_;
        const std::uint32_t *below = row + width_;
        std::size_t out = end;
        for (std::size_t i = begin; i < end; ++i) {
            const std::uint32_t upper_out = cone[i] & ~1U;
            const std::uint32_t lower_out = cone[i] | 1U;
            const std::uint32_t sum = below[upper_out] + below[lower_out];
            const std::uint32_t up = inputs[upper_out];
            const std::uint32_t down = inputs[lower_out];
            row[up] = busy[up] ? 0 : sum;
            row[down] = busy[down] ? 0 : sum;
            cone[out++] = up;
            cone[out++] = down;
        }
        begin = end;
        end = out;
    }
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
    if (avail.count(type, 0, src) == 0)
        return std::nullopt;

    RouteResult result;
    std::size_t link = src;
    result.path.reserve(net_->stages() + 1);
    result.path.push_back(link);
    for (std::size_t stage = 0; stage < net_->stages(); ++stage) {
        const std::size_t box = net_->boxOf(stage, link);
        const std::size_t up = net_->outputLink(box, 0);
        const std::size_t down = net_->outputLink(box, 1);
        const std::size_t a0 = avail.count(type, stage + 1, up);
        const std::size_t a1 = avail.count(type, stage + 1, down);
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
        result.path.push_back(link);
        ++result.boxesTraversed;
    }
    result.outputPort = link;
    circuit.claim(result.path);
    result.resource = pool.claim(result.outputPort, type);
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
    const std::vector<std::size_t> path = net_->path(src, dst);
    if (!circuit.pathFree(path))
        return std::nullopt;
    RouteResult result;
    result.path = path;
    result.outputPort = dst;
    result.boxesTraversed = net_->stages();
    circuit.claim(result.path);
    result.resource = pool.claim(dst, type);
    return result;
}

} // namespace sched
} // namespace rsin
