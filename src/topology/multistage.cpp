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
    }
    return "?";
}

MultistageNetwork::MultistageNetwork(MultistageKind kind, std::size_t size)
    : kind_(kind), n_(size), stages_(log2Of(size))
{
    RSIN_REQUIRE(isPowerOfTwo(size) && size >= 2,
                 "MultistageNetwork: size must be a power of two >= 2, got ",
                 size);
    RSIN_REQUIRE(stages_ < LinkPath::kCapacity,
                 "MultistageNetwork: at most ", LinkPath::kCapacity - 1,
                 " stages, got ", stages_);
    position_.resize(stages_ * n_);
    for (std::size_t stage = 0; stage < stages_; ++stage)
        for (std::size_t link = 0; link < n_; ++link)
            position_[stage * n_ + link] =
                static_cast<std::uint32_t>(computePosition(stage, link));
    buildBlocks();
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
    }
    RSIN_PANIC("computePosition: unknown kind");
}

void
MultistageNetwork::buildBlocks()
{
    // Bottom-up.  Boundary `stages` has one block per output.  A
    // boundary-b link reaches what both outputs of its box reach, so its
    // block joins the two boundary-(b+1) blocks of its box.  In a banyan
    // every box that touches a block pairs it with the same other block,
    // so the blocks pair off, 2^b at boundary b, and a link reaches
    // exactly the outputs of its block.
    const std::size_t bounds = stages_ + 1;
    linkBlock_.resize(bounds * n_);
    outputBlock_.resize(n_ * bounds);
    for (std::size_t d = 0; d < n_; ++d) {
        linkBlock_[stages_ * n_ + d] = static_cast<std::uint32_t>(d);
        outputBlock_[d * bounds + stages_] = static_cast<std::uint32_t>(d);
    }
    // Boundary b+1's blocks are first..first+count-1; partner and
    // merged are indexed by block - first.
    constexpr std::uint32_t kUnpaired = UINT32_MAX;
    std::vector<std::uint32_t> partner(n_), merged(n_);
    std::uint32_t first = 0;
    std::uint32_t count = static_cast<std::uint32_t>(n_);
    for (std::size_t b = stages_; b-- > 0;) {
        const std::uint32_t *below = linkBlocks(b + 1);
        std::fill_n(partner.begin(), count, kUnpaired);
        for (std::size_t up = 0; up < n_; up += 2) {
            const std::uint32_t x = below[up] - first;
            const std::uint32_t y = below[up + 1] - first;
            RSIN_ASSERT(x != y &&
                            (partner[x] == kUnpaired || partner[x] == y) &&
                            (partner[y] == kUnpaired || partner[y] == x),
                        "MultistageNetwork: stage ", b,
                        " does not pair its output blocks (not a banyan)");
            partner[x] = y;
            partner[y] = x;
        }
        // Number the pairs after boundary b+1's blocks, in order of
        // their first block (the Omega's come out contiguous).
        const std::uint32_t next = first + count;
        std::uint32_t made = 0;
        for (std::uint32_t k = 0; k < count; ++k)
            merged[k] = k < partner[k] ? next + made++ : merged[partner[k]];
        // Both inputs of a box reach what its outputs reach.
        std::uint32_t *row = linkBlock_.data() + b * n_;
        const std::uint32_t *pos = position_.data() + b * n_;
        for (std::size_t l = 0; l < n_; ++l)
            row[l] = merged[below[pos[l] & ~std::uint32_t{1}] - first];
        for (std::size_t d = 0; d < n_; ++d) {
            std::uint32_t *chain = outputBlock_.data() + d * bounds;
            chain[b] = merged[chain[b + 1] - first];
        }
        first = next;
        count = made;
    }
    blockCount_ = first + count;
}

bool
MultistageNetwork::reaches(std::size_t stage, std::size_t link,
                           std::size_t dst) const
{
    RSIN_REQUIRE(stage <= stages_ && link < n_ && dst < n_,
                 "reaches: out of range");
    return linkBlocks(stage)[link] == outputBlocks(dst)[stage];
}

std::size_t
MultistageNetwork::routePort(std::size_t stage, std::size_t link,
                             std::size_t dst) const
{
    RSIN_REQUIRE(stage < stages_ && link < n_ && dst < n_,
                 "routePort: out of range");
    // The box's two outputs, and dst's block one boundary on.
    const std::uint32_t *below = linkBlocks(stage + 1);
    const std::size_t up = outputLink(boxOf(stage, link), 0);
    const std::uint32_t want = outputBlocks(dst)[stage + 1];
    if (below[up] == want)
        return 0;
    if (below[up + 1] == want)
        return 1;
    RSIN_FATAL("routePort: output ", dst, " unreachable from stage ", stage,
               " link ", link);
}

LinkPath
MultistageNetwork::path(std::size_t src, std::size_t dst) const
{
    RSIN_REQUIRE(src < n_ && dst < n_, "path: endpoint out of range");
    LinkPath links;
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
CircuitState::claim(std::span<const std::uint32_t> path)
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
CircuitState::release(std::span<const std::uint32_t> path)
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
CircuitState::pathFree(std::span<const std::uint32_t> path) const
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
