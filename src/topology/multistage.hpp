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
 * output, which the reachability helpers exploit.
 */

#include <cstddef>
#include <cstdint>
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
    Custom, ///< caller-supplied per-stage permutations
};

/** Human-readable name of a wiring kind. */
std::string kindName(MultistageKind kind);

/** Structural description of an N x N multistage network. */
class MultistageNetwork
{
  public:
    /** @param size N; must be a power of two >= 2. */
    MultistageNetwork(MultistageKind kind, std::size_t size);

    /**
     * Build a network from explicit per-stage permutations:
     * stage_perms[k][link] is the box-array position (box*2 + port)
     * that boundary-k link feeds.  Each entry must be a permutation of
     * 0..N-1.  The wiring need not be a banyan; the reachability
     * helpers and the distributed router work regardless (a request is
     * routable iff some free resource is reachable over free segments).
     */
    explicit MultistageNetwork(
        std::vector<std::vector<std::size_t>> stage_perms);

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
     * Inverse of stagePosition for stage @p stage: entry `position`
     * (box*2 + input port) is the boundary-@p stage link feeding it
     * (size() entries), for loops that walk the wiring backwards.
     */
    const std::uint32_t *
    inputLinks(std::size_t stage) const
    {
        RSIN_ASSERT(stage < stages_, "inputLinks: out of range");
        return inputLink_.data() + stage * n_;
    }

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
    std::vector<std::size_t> path(std::size_t src, std::size_t dst) const;

    /**
     * Output port the box at stage @p stage must select so a request on
     * boundary-@p stage link @p link eventually reaches @p dst (the
     * routing-tag bit of address-mapping mode).
     */
    std::size_t routePort(std::size_t stage, std::size_t link,
                          std::size_t dst) const;

    /** All outputs reachable from boundary-@p stage link @p link. */
    std::vector<std::size_t> reachableOutputs(std::size_t stage,
                                              std::size_t link) const;

    /** True if @p dst is reachable from boundary-@p stage link @p link. */
    bool reaches(std::size_t stage, std::size_t link,
                 std::size_t dst) const;

  private:
    /** The wiring rule of kind_ (the tables below cache it). */
    std::size_t computePosition(std::size_t stage, std::size_t link) const;
    void buildWiring();
    void buildReachability();

    MultistageKind kind_;
    std::size_t n_;
    std::size_t stages_;
    std::vector<std::vector<std::size_t>> customPerms_; ///< Custom only
    /** position_[stage * n + link] = stagePosition(stage, link). */
    std::vector<std::uint32_t> position_;
    /** inputLink_[stage * n + stagePosition(stage, l)] = l. */
    std::vector<std::uint32_t> inputLink_;
    /** reach_[stage][link] = bitmask vector over outputs. */
    std::vector<std::vector<std::vector<bool>>> reach_;
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

    /** Busy flags of boundary @p boundary's links (size() entries,
     *  nonzero = held), for loops over a whole boundary. */
    const std::uint8_t *
    busyFlags(std::size_t boundary) const
    {
        RSIN_REQUIRE(boundary <= net_->stages(), "busyFlags: out of range");
        return busy_.data() + boundary * net_->size();
    }

    /** Claim one segment; it must currently be free. */
    void claimSegment(std::size_t boundary, std::size_t link);

    /** Release one segment; it must currently be busy. */
    void releaseSegment(std::size_t boundary, std::size_t link);

    /** Claim every segment on @p path; all must currently be free. */
    void claim(const std::vector<std::size_t> &path);

    /** Release every segment on @p path; all must currently be busy. */
    void release(const std::vector<std::size_t> &path);

    /** True if every segment on @p path is free. */
    bool pathFree(const std::vector<std::size_t> &path) const;

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
