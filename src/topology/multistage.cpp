#include "multistage.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace rsin {
namespace topology {

namespace {

bool
isPowerOfTwo(std::size_t x)
{
    return x >= 1 && (x & (x - 1)) == 0;
}

std::size_t
log2Of(std::size_t x)
{
    std::size_t n = 0;
    while ((std::size_t{1} << n) < x)
        ++n;
    return n;
}

} // namespace

std::string
kindName(MultistageKind kind)
{
    switch (kind) {
      case MultistageKind::Omega:
        return "OMEGA";
      case MultistageKind::IndirectCube:
        return "CUBE";
      case MultistageKind::Custom:
        return "CUSTOM";
    }
    return "?";
}

MultistageNetwork::MultistageNetwork(MultistageKind kind, std::size_t size)
    : kind_(kind), n_(size), stages_(log2Of(size))
{
    RSIN_REQUIRE(isPowerOfTwo(size) && size >= 2,
                 "MultistageNetwork: size must be a power of two >= 2, got ",
                 size);
    RSIN_REQUIRE(kind != MultistageKind::Custom,
                 "MultistageNetwork: Custom requires explicit "
                 "permutations");
    buildWiring();
    buildReachability();
}

MultistageNetwork::MultistageNetwork(
    std::vector<std::vector<std::size_t>> stage_perms)
    : kind_(MultistageKind::Custom),
      customPerms_(std::move(stage_perms))
{
    RSIN_REQUIRE(!customPerms_.empty(),
                 "MultistageNetwork: need at least one stage");
    stages_ = customPerms_.size();
    n_ = customPerms_.front().size();
    RSIN_REQUIRE(isPowerOfTwo(n_) && n_ >= 2,
                 "MultistageNetwork: width must be a power of two >= 2, "
                 "got ", n_);
    for (const auto &perm : customPerms_) {
        RSIN_REQUIRE(perm.size() == n_,
                     "MultistageNetwork: ragged stage permutation");
        std::vector<bool> seen(n_, false);
        for (std::size_t pos : perm) {
            RSIN_REQUIRE(pos < n_ && !seen[pos],
                         "MultistageNetwork: stage table is not a "
                         "permutation");
            seen[pos] = true;
        }
    }
    buildWiring();
    buildReachability();
}

std::size_t
MultistageNetwork::shuffle(std::size_t link) const
{
    RSIN_ASSERT(link < n_, "shuffle: link out of range");
    const std::size_t msb = (link >> (stages_ - 1)) & 1;
    return ((link << 1) | msb) & (n_ - 1);
}

std::size_t
MultistageNetwork::computePosition(std::size_t stage,
                                   std::size_t link) const
{
    switch (kind_) {
      case MultistageKind::Omega:
        return shuffle(link);
      case MultistageKind::IndirectCube: {
        // Pair links differing in bit `stage`: box index is the link
        // with bit `stage` removed; the removed bit selects the port.
        const std::size_t bit = (link >> stage) & 1;
        const std::size_t low = link & ((std::size_t{1} << stage) - 1);
        const std::size_t high = link >> (stage + 1);
        const std::size_t box = (high << stage) | low;
        return box * 2 + bit;
      }
      case MultistageKind::Custom:
        return customPerms_[stage][link];
    }
    RSIN_PANIC("computePosition: unknown kind");
}

void
MultistageNetwork::buildWiring()
{
    position_.assign(stages_ * n_, 0);
    inputLink_.assign(stages_ * n_, 0);
    for (std::size_t stage = 0; stage < stages_; ++stage) {
        for (std::size_t link = 0; link < n_; ++link) {
            const std::size_t pos = computePosition(stage, link);
            position_[stage * n_ + link] = static_cast<std::uint32_t>(pos);
            inputLink_[stage * n_ + pos] = static_cast<std::uint32_t>(link);
        }
    }
}

void
MultistageNetwork::buildReachability()
{
    reach_.assign(stages_ + 1,
                  std::vector<std::vector<bool>>(
                      n_, std::vector<bool>(n_, false)));
    // Boundary n: link d reaches output d only.
    for (std::size_t d = 0; d < n_; ++d)
        reach_[stages_][d][d] = true;
    // Backward induction: a boundary-k link reaches whatever either
    // output port of its box reaches at boundary k+1.
    for (std::size_t stage = stages_; stage-- > 0;) {
        for (std::size_t link = 0; link < n_; ++link) {
            const std::size_t box = boxOf(stage, link);
            for (std::size_t q = 0; q < 2; ++q) {
                const std::size_t next = outputLink(box, q);
                for (std::size_t d = 0; d < n_; ++d) {
                    if (reach_[stage + 1][next][d])
                        reach_[stage][link][d] = true;
                }
            }
        }
    }
}

bool
MultistageNetwork::reaches(std::size_t stage, std::size_t link,
                           std::size_t dst) const
{
    RSIN_REQUIRE(stage <= stages_ && link < n_ && dst < n_,
                 "reaches: out of range");
    return reach_[stage][link][dst];
}

std::vector<std::size_t>
MultistageNetwork::reachableOutputs(std::size_t stage,
                                    std::size_t link) const
{
    RSIN_REQUIRE(stage <= stages_ && link < n_,
                 "reachableOutputs: out of range");
    std::vector<std::size_t> out;
    for (std::size_t d = 0; d < n_; ++d)
        if (reach_[stage][link][d])
            out.push_back(d);
    return out;
}

std::size_t
MultistageNetwork::routePort(std::size_t stage, std::size_t link,
                             std::size_t dst) const
{
    const std::size_t box = boxOf(stage, link);
    for (std::size_t q = 0; q < 2; ++q) {
        if (reach_[stage + 1][outputLink(box, q)][dst])
            return q;
    }
    RSIN_FATAL("routePort: output ", dst, " unreachable from stage ", stage,
               " link ", link);
}

std::vector<std::size_t>
MultistageNetwork::path(std::size_t src, std::size_t dst) const
{
    RSIN_REQUIRE(src < n_ && dst < n_, "path: endpoint out of range");
    std::vector<std::size_t> links;
    links.reserve(stages_ + 1);
    std::size_t link = src;
    links.push_back(link);
    for (std::size_t stage = 0; stage < stages_; ++stage) {
        const std::size_t q = routePort(stage, link, dst);
        link = outputLink(boxOf(stage, link), q);
        links.push_back(link);
    }
    RSIN_ASSERT(link == dst, "path: routing did not land on destination");
    return links;
}

CircuitState::CircuitState(const MultistageNetwork &net)
    : net_(&net), busy_((net.stages() + 1) * net.size(), 0)
{
}

void
CircuitState::claimSegment(std::size_t boundary, std::size_t link)
{
    RSIN_REQUIRE(boundary <= net_->stages() && link < net_->size(),
                 "claimSegment: out of range");
    RSIN_REQUIRE(!busy(boundary, link), "claimSegment: already busy");
    busy(boundary, link) = 1;
}

void
CircuitState::releaseSegment(std::size_t boundary, std::size_t link)
{
    RSIN_REQUIRE(boundary <= net_->stages() && link < net_->size(),
                 "releaseSegment: out of range");
    RSIN_REQUIRE(busy(boundary, link), "releaseSegment: not busy");
    busy(boundary, link) = 0;
}

void
CircuitState::claim(const std::vector<std::size_t> &path)
{
    RSIN_REQUIRE(path.size() == net_->stages() + 1,
                 "claim: path has wrong length");
    for (std::size_t b = 0; b < path.size(); ++b) {
        RSIN_REQUIRE(path[b] < net_->size(), "claim: link out of range");
        RSIN_REQUIRE(!busy(b, path[b]), "claim: segment already busy");
        busy(b, path[b]) = 1;
    }
}

void
CircuitState::release(const std::vector<std::size_t> &path)
{
    RSIN_REQUIRE(path.size() == net_->stages() + 1,
                 "release: path has wrong length");
    for (std::size_t b = 0; b < path.size(); ++b) {
        RSIN_REQUIRE(path[b] < net_->size(), "release: link out of range");
        RSIN_REQUIRE(busy(b, path[b]), "release: segment not busy");
        busy(b, path[b]) = 0;
    }
}

bool
CircuitState::pathFree(const std::vector<std::size_t> &path) const
{
    RSIN_REQUIRE(path.size() == net_->stages() + 1,
                 "pathFree: path has wrong length");
    for (std::size_t b = 0; b < path.size(); ++b)
        if (!segmentFree(b, path[b]))
            return false;
    return true;
}

std::size_t
CircuitState::busySegments() const
{
    return static_cast<std::size_t>(
        std::count(busy_.begin(), busy_.end(), std::uint8_t{1}));
}

void
CircuitState::clear()
{
    std::fill(busy_.begin(), busy_.end(), std::uint8_t{0});
}

} // namespace topology
} // namespace rsin
