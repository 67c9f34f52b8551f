#pragma once

/**
 * @file
 * Multistage dynamic network structure (paper Section V).
 *
 * An N x N network (N a power of two) of log2(N) stages of 2x2
 * interchange boxes.  Link *boundaries* are numbered 0..n: boundary 0
 * carries the processor-side wires, boundary n the output-port buses.
 * Stage k sits between boundaries k and k+1.  Each stage applies a fixed
 * inter-stage permutation P_k to the incoming boundary links; box b of a
 * stage receives array positions 2b and 2b+1 and drives boundary-(k+1)
 * links 2b and 2b+1 through a straight or exchange setting.
 *
 * Two classic wirings are provided:
 *  - Omega (Lawrie): P_k = perfect shuffle at every stage;
 *  - Indirect binary n-cube (Pease): P_k pairs links differing in bit k.
 *
 * Both are banyan networks: exactly one path joins any input to any
 * output.  So the outputs a boundary-b link reaches form one of 2^b
 * nested blocks, and the block tables are the network's one
 * reachability structure: a link reaches an output iff the link's
 * block is the output's block at that boundary.  They answer the
 * routing tags, and let the availability registers
 * (sched/omega_router.hpp) tell which counts a change at one output
 * can touch.
 */

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace rsin {
namespace topology {

/** Which inter-stage wiring to build. */
enum class MultistageKind
{
    Omega,
    IndirectCube,
};

/** Human-readable name of a wiring kind. */
std::string kindName(MultistageKind kind);

/**
 * The boundary links of one circuit, path[b] at boundary b, held
 * inline: routing, claiming and releasing a circuit never allocate.
 * At most kCapacity links, so a network has at most kCapacity - 1
 * stages (a power-of-two size up to 2^31 in log2 stages).  Only the
 * links in use are ever written or read, copies included, so a new
 * path costs no fill of its unused capacity.
 */
class LinkPath
{
  public:
    static constexpr std::size_t kCapacity = 32;
    using value_type = std::uint32_t;
    using const_iterator = const std::uint32_t *;

    LinkPath() = default;
    LinkPath(const LinkPath &other) noexcept { *this = other; }

    LinkPath &
    operator=(const LinkPath &other) noexcept
    {
        size_ = other.size_;
        for (std::uint32_t i = 0; i < size_; ++i)
            links_[i] = other.links_[i];
        return *this;
    }

    std::size_t size() const { return size_; }
    const_iterator begin() const { return links_.data(); }
    const_iterator end() const { return links_.data() + size_; }

    std::uint32_t
    operator[](std::size_t boundary) const
    {
        RSIN_ASSERT(boundary < size_, "LinkPath: boundary out of range");
        return links_[boundary];
    }

    std::uint32_t front() const { return (*this)[0]; }
    std::uint32_t back() const { return (*this)[size_ - 1]; }

    /** Append the link at the next boundary. */
    void
    push_back(std::size_t link)
    {
        RSIN_ASSERT(size_ < kCapacity && link <= UINT32_MAX,
                    "LinkPath: too many links or link out of range");
        links_[size_++] = static_cast<std::uint32_t>(link);
    }

    /** Drop the link at the last boundary. */
    void
    pop_back()
    {
        RSIN_ASSERT(size_ > 0, "LinkPath: pop from an empty path");
        --size_;
    }

    friend bool
    operator==(const LinkPath &a, const LinkPath &b)
    {
        return std::equal(a.begin(), a.end(), b.begin(), b.end());
    }

  private:
    std::array<std::uint32_t, kCapacity> links_; ///< first size_ in use
    std::uint32_t size_ = 0;
};

/** Structural description of an N x N multistage network. */
class MultistageNetwork
{
  public:
    /** @param size N; must be a power of two >= 2. */
    MultistageNetwork(MultistageKind kind, std::size_t size);

    MultistageKind kind() const { return kind_; }
    std::size_t size() const { return n_; }
    std::size_t stages() const { return stages_; }
    std::size_t boxesPerStage() const { return n_ / 2; }
    std::size_t totalBoxes() const { return boxesPerStage() * stages_; }

    /** Perfect shuffle of a link index (rotate-left of the n bits). */
    std::size_t shuffle(std::size_t link) const;

    /**
     * Inter-stage permutation: array position (box*2 + input port) that
     * boundary-@p stage link @p link feeds in stage @p stage.
     */
    std::size_t
    stagePosition(std::size_t stage, std::size_t link) const
    {
        RSIN_ASSERT(stage < stages_ && link < n_,
                    "stagePosition: out of range");
        return position_[stage * n_ + link];
    }

    /**
     * stagePosition of every (stage, link), [stage * size() + link],
     * for loops that walk the wiring forward: the box outputs of entry
     * e are boundary-(stage+1) links (e & ~1) and (e | 1).
     */
    const std::uint32_t *stagePositions() const { return position_.data(); }

    /** Box index receiving boundary-@p stage link @p link. */
    std::size_t
    boxOf(std::size_t stage, std::size_t link) const
    {
        return stagePosition(stage, link) / 2;
    }

    /** Input port (0 = upper, 1 = lower) of that box. */
    std::size_t
    portOf(std::size_t stage, std::size_t link) const
    {
        return stagePosition(stage, link) % 2;
    }

    /** Boundary-(stage+1) link driven by box @p box output port @p q. */
    std::size_t
    outputLink(std::size_t box, std::size_t q) const
    {
        RSIN_ASSERT(box < boxesPerStage() && q < 2,
                    "outputLink: out of range");
        return box * 2 + q;
    }

    /**
     * The unique path from input @p src to output @p dst as the list of
     * boundary links traversed (n+1 entries, path[0] = src,
     * path[n] = dst).
     */
    LinkPath path(std::size_t src, std::size_t dst) const;

    /**
     * Output port the box at stage @p stage must select so a request on
     * boundary-@p stage link @p link eventually reaches @p dst (the
     * routing-tag bit of address-mapping mode).  Throws FatalError when
     * an argument is out of range or the link does not reach @p dst.
     */
    std::size_t routePort(std::size_t stage, std::size_t link,
                          std::size_t dst) const;

    /** True if @p dst is reachable from boundary-@p stage link @p link. */
    bool reaches(std::size_t stage, std::size_t link,
                 std::size_t dst) const;

    /**
     * Output blocks: the outputs one boundary-b link reaches, 2^b
     * nested blocks at boundary b and 2n-1 in all.  Blocks are
     * numbered 0..blockCount()-1 over all boundaries, and block d at
     * boundary n is output d alone.
     */
    std::size_t blockCount() const { return blockCount_; }

    /**
     * Block of every boundary-@p boundary link: entry l is the block
     * holding the outputs link l reaches (size() entries).
     */
    const std::uint32_t *
    linkBlocks(std::size_t boundary) const
    {
        RSIN_ASSERT(boundary <= stages_, "linkBlocks: out of range");
        return linkBlock_.data() + boundary * n_;
    }

    /**
     * Blocks holding output @p output, entry b at boundary b
     * (stages()+1 entries, the last is @p output itself): the blocks
     * whose links reach the output, so the blocks a change at it can
     * touch.
     */
    const std::uint32_t *
    outputBlocks(std::size_t output) const
    {
        RSIN_ASSERT(output < n_, "outputBlocks: out of range");
        return outputBlock_.data() + output * (stages_ + 1);
    }

  private:
    /** The wiring rule of kind_ (position_ caches it). */
    std::size_t computePosition(std::size_t stage, std::size_t link) const;
    void buildBlocks();

    MultistageKind kind_;
    std::size_t n_;
    std::size_t stages_;
    /** position_[stage * n + link] = stagePosition(stage, link). */
    std::vector<std::uint32_t> position_;
    std::size_t blockCount_ = 0;
    /** linkBlock_[boundary * n + link]; see linkBlocks. */
    std::vector<std::uint32_t> linkBlock_;
    /** outputBlock_[output * (stages+1) + boundary]; see outputBlocks. */
    std::vector<std::uint32_t> outputBlock_;
};

/**
 * Occupancy state of a circuit-switched multistage network: one busy bit
 * per (boundary, link) wire segment.  A connection holds every segment
 * on its path from the processor wire to the output-port bus.
 */
class CircuitState
{
  public:
    explicit CircuitState(const MultistageNetwork &net);

    const MultistageNetwork &network() const { return *net_; }

    bool
    segmentFree(std::size_t boundary, std::size_t link) const
    {
        RSIN_REQUIRE(boundary <= net_->stages() && link < net_->size(),
                     "segmentFree: out of range");
        return busy_[boundary * net_->size() + link] == 0;
    }

    /** Busy flags of every segment, [boundary * size() + link],
     *  nonzero = held, for loops over many segments.  Valid as long as
     *  the state. */
    const std::uint8_t *busyFlags() const { return busy_.data(); }

    /** Claim one segment; it must currently be free. */
    void claimSegment(std::size_t boundary, std::size_t link);

    /** Release one segment; it must currently be busy. */
    void releaseSegment(std::size_t boundary, std::size_t link);

    /** Claim every segment on @p path (path[b] is the link at
     *  boundary b); all must currently be free. */
    void claim(std::span<const std::uint32_t> path);

    /** Release every segment on @p path; all must currently be busy. */
    void release(std::span<const std::uint32_t> path);

    /** True if every segment on @p path is free. */
    bool pathFree(std::span<const std::uint32_t> path) const;

    /** Number of busy segments (diagnostics). */
    std::size_t busySegments() const;

    /** Free all segments. */
    void clear();

  private:
    /** Busy flag of segment (@p boundary, @p link). */
    std::uint8_t &
    busy(std::size_t boundary, std::size_t link)
    {
        return busy_[boundary * net_->size() + link];
    }

    const MultistageNetwork *net_;
    std::vector<std::uint8_t> busy_; ///< [boundary * size + link]
};

} // namespace topology
} // namespace rsin
