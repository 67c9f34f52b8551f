#include "multistage.hpp"

#include <algorithm>
#include <bit>

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
    buildBlocks();
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
      case MultistageKind::Custom:
        return customPerms_[stage][link];
    }
    RSIN_PANIC("computePosition: unknown kind");
}

void
MultistageNetwork::buildWiring()
{
    RSIN_REQUIRE(stages_ < LinkPath::kCapacity,
                 "MultistageNetwork: at most ", LinkPath::kCapacity - 1,
                 " stages, got ", stages_);
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
    const std::size_t row_words = words();
    reach_.assign((stages_ + 1) * n_ * row_words, 0);
    // Boundary n: link d reaches output d only.
    for (std::size_t d = 0; d < n_; ++d)
        reach_[(stages_ * n_ + d) * row_words + d / 64] |=
            std::uint64_t{1} << (d % 64);
    // Backward induction: a boundary-k link reaches whatever either
    // output port of its box reaches at boundary k+1, one word at a
    // time.
    for (std::size_t stage = stages_; stage-- > 0;) {
        for (std::size_t link = 0; link < n_; ++link) {
            const std::size_t box = boxOf(stage, link);
            const std::uint64_t *upper =
                reachRow(stage + 1, outputLink(box, 0));
            const std::uint64_t *lower =
                reachRow(stage + 1, outputLink(box, 1));
            std::uint64_t *row =
                reach_.data() + (stage * n_ + link) * row_words;
            for (std::size_t w = 0; w < row_words; ++w)
                row[w] = upper[w] | lower[w];
        }
    }
}

void
MultistageNetwork::buildBlocks()
{
    // Bottom-up.  Boundary `stages` has one block per output.  A
    // boundary-b link reaches what both outputs of its box reach, so
    // the blocks of boundary b are those of boundary b+1 merged box by
    // box: a union-find over b+1's blocks first..first+blocks-1, whose
    // components are numbered after them.
    linkBlock_.resize((stages_ + 1) * n_);
    blockParent_.reserve(2 * n_); // a banyan's 2n-1 blocks
    blockParent_.resize(n_);
    for (std::size_t d = 0; d < n_; ++d)
        linkBlock_[stages_ * n_ + d] = static_cast<std::uint32_t>(d);
    std::size_t first = 0;
    std::size_t blocks = n_;
    for (std::size_t b = stages_; b-- > 0;) {
        const std::uint32_t *below = linkBlocks(b + 1);
        std::uint32_t *row = linkBlock_.data() + b * n_;
        // Boundary b's row is still free: it holds the union-find, over
        // local numbers, until the row itself is filled.  Union by the
        // smaller number makes each root its component's lowest block.
        std::uint32_t *parent = row;
        const auto find = [parent](std::uint32_t x) {
            while (parent[x] != x)
                x = parent[x] = parent[parent[x]];
            return x;
        };
        for (std::uint32_t k = 0; k < blocks; ++k)
            parent[k] = k;
        for (std::size_t box = 0; box < n_ / 2; ++box) {
            const std::uint32_t upper = find(static_cast<std::uint32_t>(
                below[outputLink(box, 0)] - first));
            const std::uint32_t lower = find(static_cast<std::uint32_t>(
                below[outputLink(box, 1)] - first));
            parent[std::max(upper, lower)] = std::min(upper, lower);
        }
        // A root comes before the rest of its component, so numbering
        // roots in order keeps the blocks in order of their lowest
        // output (the Omega's come out contiguous).
        const std::size_t next = first + blocks;
        std::size_t merged = 0;
        blockParent_.resize(next);
        for (std::uint32_t k = 0; k < blocks; ++k) {
            const std::uint32_t root = find(k);
            blockParent_[first + k] =
                root == k ? static_cast<std::uint32_t>(next + merged++)
                          : blockParent_[first + root];
        }
        // Both inputs of a box reach what its outputs reach.
        const std::uint32_t *inputs = inputLinks(b);
        for (std::size_t box = 0; box < n_ / 2; ++box) {
            const std::uint32_t block =
                blockParent_[below[outputLink(box, 0)]];
            row[inputs[2 * box]] = block;
            row[inputs[2 * box + 1]] = block;
        }
        first = next;
        blocks = merged;
    }
    // Boundary 0's blocks are the roots.
    blockCount_ = first + blocks;
    blockParent_.resize(blockCount_);
    for (std::size_t k = first; k < blockCount_; ++k)
        blockParent_[k] = static_cast<std::uint32_t>(k);
}

bool
MultistageNetwork::reaches(std::size_t stage, std::size_t link,
                           std::size_t dst) const
{
    RSIN_REQUIRE(stage <= stages_ && link < n_ && dst < n_,
                 "reaches: out of range");
    return (reachRow(stage, link)[dst / 64] >> (dst % 64)) & 1;
}

std::vector<std::size_t>
MultistageNetwork::reachableOutputs(std::size_t stage,
                                    std::size_t link) const
{
    RSIN_REQUIRE(stage <= stages_ && link < n_,
                 "reachableOutputs: out of range");
    const std::uint64_t *row = reachRow(stage, link);
    std::vector<std::size_t> out;
    for (std::size_t w = 0; w < words(); ++w)
        for (std::uint64_t bits = row[w]; bits != 0; bits &= bits - 1)
            out.push_back(w * 64 +
                          static_cast<std::size_t>(std::countr_zero(bits)));
    return out;
}

std::size_t
MultistageNetwork::routePort(std::size_t stage, std::size_t link,
                             std::size_t dst) const
{
    const std::size_t box = boxOf(stage, link);
    for (std::size_t q = 0; q < 2; ++q) {
        if ((reachRow(stage + 1, outputLink(box, q))[dst / 64] >>
             (dst % 64)) & 1)
            return q;
    }
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
