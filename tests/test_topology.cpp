/**
 * @file
 * Tests for the multistage network structure: shuffle wiring, unique
 * paths, reachability, routing tags, and circuit-switched occupancy.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "topology/multistage.hpp"

namespace rsin {
namespace topology {
namespace {

TEST(MultistageTest, SizeValidation)
{
    EXPECT_THROW(MultistageNetwork(MultistageKind::Omega, 3), FatalError);
    EXPECT_THROW(MultistageNetwork(MultistageKind::Omega, 0), FatalError);
    EXPECT_THROW(MultistageNetwork(MultistageKind::Omega, 1), FatalError);
    EXPECT_NO_THROW(MultistageNetwork(MultistageKind::Omega, 16));
}

TEST(MultistageTest, StageAndBoxCounts)
{
    const MultistageNetwork net(MultistageKind::Omega, 8);
    EXPECT_EQ(net.stages(), 3u);
    EXPECT_EQ(net.boxesPerStage(), 4u);
    EXPECT_EQ(net.totalBoxes(), 12u); // N/2 * log2 N
}

TEST(MultistageTest, ShuffleIsRotateLeft)
{
    const MultistageNetwork net(MultistageKind::Omega, 8);
    EXPECT_EQ(net.shuffle(0b000), 0b000u);
    EXPECT_EQ(net.shuffle(0b001), 0b010u);
    EXPECT_EQ(net.shuffle(0b100), 0b001u);
    EXPECT_EQ(net.shuffle(0b101), 0b011u);
    EXPECT_EQ(net.shuffle(0b111), 0b111u);
}

TEST(MultistageTest, StagePositionIsPermutation)
{
    for (auto kind :
         {MultistageKind::Omega, MultistageKind::IndirectCube}) {
        const MultistageNetwork net(kind, 16);
        for (std::size_t s = 0; s < net.stages(); ++s) {
            std::set<std::size_t> seen;
            for (std::size_t l = 0; l < net.size(); ++l)
                seen.insert(net.stagePosition(s, l));
            EXPECT_EQ(seen.size(), net.size());
            EXPECT_EQ(*seen.begin(), 0u);
            EXPECT_EQ(*seen.rbegin(), net.size() - 1);
        }
    }
}

TEST(MultistageTest, CubePairsLinksDifferingInStageBit)
{
    const MultistageNetwork net(MultistageKind::IndirectCube, 8);
    for (std::size_t s = 0; s < net.stages(); ++s) {
        for (std::size_t l = 0; l < net.size(); ++l) {
            const std::size_t partner = l ^ (std::size_t{1} << s);
            EXPECT_EQ(net.boxOf(s, l), net.boxOf(s, partner))
                << "stage " << s << " link " << l;
            EXPECT_NE(net.portOf(s, l), net.portOf(s, partner));
        }
    }
}

TEST(MultistageTest, FullAccessProperty)
{
    // Every input reaches every output (full-access banyan).
    for (auto kind :
         {MultistageKind::Omega, MultistageKind::IndirectCube}) {
        for (std::size_t n : {2u, 4u, 8u, 16u, 32u}) {
            const MultistageNetwork net(kind, n);
            for (std::size_t src = 0; src < n; ++src)
                for (std::size_t dst = 0; dst < n; ++dst)
                    EXPECT_TRUE(net.reaches(0, src, dst));
        }
    }
}

TEST(MultistageTest, PathEndpointsAndLength)
{
    for (auto kind :
         {MultistageKind::Omega, MultistageKind::IndirectCube}) {
        const MultistageNetwork net(kind, 16);
        for (std::size_t src = 0; src < 16; ++src) {
            for (std::size_t dst = 0; dst < 16; ++dst) {
                const auto path = net.path(src, dst);
                ASSERT_EQ(path.size(), net.stages() + 1);
                EXPECT_EQ(path.front(), src);
                EXPECT_EQ(path.back(), dst);
                // Consecutive links must be joined by a box.
                for (std::size_t s = 0; s < net.stages(); ++s) {
                    EXPECT_EQ(net.boxOf(s, path[s]), path[s + 1] / 2);
                }
            }
        }
    }
}

TEST(MultistageTest, OmegaPathMatchesDestinationTagRouting)
{
    // In an Omega network the stage-k routing bit is destination bit
    // n-1-k; verify the structural path agrees with the textbook rule.
    const MultistageNetwork net(MultistageKind::Omega, 8);
    for (std::size_t src = 0; src < 8; ++src) {
        for (std::size_t dst = 0; dst < 8; ++dst) {
            const auto path = net.path(src, dst);
            for (std::size_t s = 0; s < 3; ++s) {
                const std::size_t expected_bit = (dst >> (2 - s)) & 1;
                EXPECT_EQ(path[s + 1] & 1, expected_bit);
            }
        }
    }
}

TEST(MultistageTest, ReachabilityHalvesPerStage)
{
    const MultistageNetwork net(MultistageKind::Omega, 16);
    // From a boundary-k link, exactly N / 2^k outputs are reachable.
    for (std::size_t src = 0; src < 16; ++src) {
        const auto path = net.path(src, 5);
        for (std::size_t b = 0; b <= net.stages(); ++b) {
            std::size_t reached = 0;
            for (std::size_t dst = 0; dst < 16; ++dst)
                reached += net.reaches(b, path[b], dst);
            EXPECT_EQ(reached, 16u >> b);
        }
    }
}

TEST(MultistageTest, RoutePortAgreesWithReachability)
{
    const MultistageNetwork net(MultistageKind::IndirectCube, 16);
    for (std::size_t src = 0; src < 16; ++src) {
        std::size_t link = src;
        const std::size_t dst = (src * 7 + 3) % 16;
        for (std::size_t s = 0; s < net.stages(); ++s) {
            const std::size_t q = net.routePort(s, link, dst);
            link = net.outputLink(net.boxOf(s, link), q);
            EXPECT_TRUE(net.reaches(s + 1, link, dst));
        }
        EXPECT_EQ(link, dst);
    }
}

TEST(MultistageTest, RoutePortRejectsOutOfRange)
{
    const MultistageNetwork net(MultistageKind::Omega, 8);
    EXPECT_THROW(net.routePort(2, 3, 64), FatalError); // dst
    EXPECT_THROW(net.routePort(2, 3, 8), FatalError);
    EXPECT_THROW(net.routePort(3, 3, 0), FatalError); // stage
    EXPECT_THROW(net.routePort(2, 8, 0), FatalError); // link
    EXPECT_THROW(net.reaches(4, 0, 0), FatalError);
    EXPECT_THROW(net.reaches(3, 0, 8), FatalError);
    // In range, but outside the link's block: a boundary-2 link of an
    // 8-port network reaches 2 outputs.
    std::size_t stranded = 0;
    while (net.reaches(2, 3, stranded))
        ++stranded;
    EXPECT_THROW(net.routePort(2, 3, stranded), FatalError);
}

TEST(MultistageTest, BanyanPathUniqueness)
{
    // Enumerate every port-choice sequence and count how many land on
    // each output: the built-in wirings are banyans, so the count is
    // exactly one for every (src, dst) pair.
    for (auto kind :
         {MultistageKind::Omega, MultistageKind::IndirectCube}) {
        const MultistageNetwork net(kind, 16);
        for (std::size_t src = 0; src < 16; ++src) {
            std::vector<std::size_t> hits(16, 0);
            const std::size_t choices = std::size_t{1} << net.stages();
            for (std::size_t mask = 0; mask < choices; ++mask) {
                std::size_t link = src;
                for (std::size_t s = 0; s < net.stages(); ++s) {
                    const std::size_t q = (mask >> s) & 1;
                    link = net.outputLink(net.boxOf(s, link), q);
                }
                ++hits[link];
            }
            for (std::size_t dst = 0; dst < 16; ++dst)
                EXPECT_EQ(hits[dst], 1u)
                    << kindName(kind) << " src " << src << " dst "
                    << dst;
        }
    }
}

TEST(CircuitStateTest, ClaimReleaseRoundTrip)
{
    const MultistageNetwork net(MultistageKind::Omega, 8);
    CircuitState circuit(net);
    const auto path = net.path(2, 6);
    EXPECT_TRUE(circuit.pathFree(path));
    circuit.claim(path);
    EXPECT_FALSE(circuit.pathFree(path));
    EXPECT_EQ(circuit.busySegments(), net.stages() + 1);
    circuit.release(path);
    EXPECT_TRUE(circuit.pathFree(path));
    EXPECT_EQ(circuit.busySegments(), 0u);
}

TEST(CircuitStateTest, DoubleClaimRejected)
{
    const MultistageNetwork net(MultistageKind::Omega, 8);
    CircuitState circuit(net);
    const auto path = net.path(0, 0);
    circuit.claim(path);
    EXPECT_THROW(circuit.claim(path), FatalError);
    circuit.release(path);
    EXPECT_THROW(circuit.release(path), FatalError);
}

TEST(CircuitStateTest, DisjointPathsCoexist)
{
    const MultistageNetwork net(MultistageKind::Omega, 8);
    CircuitState circuit(net);
    // Section II: mappings {(0,0), (1,1), (2,2)} are all establishable.
    const auto p0 = net.path(0, 0);
    const auto p1 = net.path(1, 1);
    const auto p2 = net.path(2, 2);
    circuit.claim(p0);
    EXPECT_TRUE(circuit.pathFree(p1));
    circuit.claim(p1);
    EXPECT_TRUE(circuit.pathFree(p2));
    circuit.claim(p2);
    EXPECT_EQ(circuit.busySegments(), 3 * (net.stages() + 1));
}

TEST(CircuitStateTest, SegmentOps)
{
    const MultistageNetwork net(MultistageKind::Omega, 4);
    CircuitState circuit(net);
    circuit.claimSegment(1, 2);
    EXPECT_FALSE(circuit.segmentFree(1, 2));
    EXPECT_THROW(circuit.claimSegment(1, 2), FatalError);
    circuit.releaseSegment(1, 2);
    EXPECT_TRUE(circuit.segmentFree(1, 2));
    EXPECT_THROW(circuit.releaseSegment(1, 2), FatalError);
    circuit.claimSegment(0, 1);
    circuit.clear();
    EXPECT_EQ(circuit.busySegments(), 0u);
}

TEST(MultistageTest, KindNames)
{
    EXPECT_EQ(kindName(MultistageKind::Omega), "OMEGA");
    EXPECT_EQ(kindName(MultistageKind::IndirectCube), "CUBE");
}

/** Outputs reachable from boundary-@p stage link @p link, by walking
 *  every box output forward one boundary at a time. */
std::vector<bool>
bruteForceReach(const MultistageNetwork &net, std::size_t stage,
                std::size_t link)
{
    const std::size_t n = net.size();
    std::vector<bool> frontier(n, false);
    frontier[link] = true;
    for (std::size_t k = stage; k < net.stages(); ++k) {
        std::vector<bool> next(n, false);
        for (std::size_t l = 0; l < n; ++l) {
            if (!frontier[l])
                continue;
            const std::size_t box = net.boxOf(k, l);
            next[net.outputLink(box, 0)] = true;
            next[net.outputLink(box, 1)] = true;
        }
        frontier = std::move(next);
    }
    return frontier;
}

TEST(TopologyTest, ReachabilityMatchesBruteForce)
{
    // reaches and routePort against a forward walk, for the two
    // banyans at every width up to 256.
    for (std::size_t n = 2; n <= 256; n *= 2) {
        for (const MultistageKind kind :
             {MultistageKind::Omega, MultistageKind::IndirectCube}) {
            const MultistageNetwork net(kind, n);
            SCOPED_TRACE(kindName(kind) + " n=" + std::to_string(n));
            for (std::size_t stage = 0; stage <= net.stages(); ++stage) {
                for (std::size_t link = 0; link < n; ++link) {
                    const std::vector<bool> want =
                        bruteForceReach(net, stage, link);
                    for (std::size_t d = 0; d < n; ++d) {
                        ASSERT_EQ(net.reaches(stage, link, d), want[d])
                            << "stage " << stage << " link " << link
                            << " dst " << d;
                    }
                    if (stage == net.stages())
                        continue;
                    // routePort takes the upper output whenever it
                    // reaches the destination.
                    const std::size_t box = net.boxOf(stage, link);
                    const std::vector<bool> upper = bruteForceReach(
                        net, stage + 1, net.outputLink(box, 0));
                    for (std::size_t d = 0; d < n; ++d) {
                        if (want[d]) {
                            ASSERT_EQ(net.routePort(stage, link, d),
                                      upper[d] ? 0u : 1u);
                        }
                    }
                }
            }
        }
    }
}

TEST(TopologyTest, OutputBlocksHoldEveryReachSet)
{
    // The blocks are the reach sets, at every width up to 1024.  Each
    // output's chain names one block per boundary; blocks nest, each
    // lies at one boundary, and boundary b has 2^b blocks of n / 2^b
    // outputs, 2n-1 in all.  A boundary-b link's block joins the two
    // disjoint blocks of its box's outputs one boundary on, so by
    // induction from the outputs it holds exactly what the link
    // reaches.
    for (std::size_t n = 2; n <= 1024; n *= 2) {
        for (const MultistageKind kind :
             {MultistageKind::Omega, MultistageKind::IndirectCube}) {
            const MultistageNetwork net(kind, n);
            SCOPED_TRACE(kindName(kind) + " n=" + std::to_string(n));
            const std::size_t stages = net.stages();
            const std::size_t blocks = net.blockCount();
            EXPECT_EQ(blocks, 2 * n - 1);
            constexpr std::uint32_t kNone = UINT32_MAX;
            // From the chains: the block one boundary up holding each
            // block, each block's boundary and its outputs.
            std::vector<std::uint32_t> parent(blocks, kNone);
            std::vector<std::size_t> boundary(blocks, stages + 1);
            std::vector<std::size_t> outputs(blocks, 0);
            for (std::size_t d = 0; d < n; ++d) {
                const std::uint32_t *chain = net.outputBlocks(d);
                ASSERT_EQ(chain[stages], d);
                for (std::size_t b = 0; b <= stages; ++b) {
                    const std::uint32_t block = chain[b];
                    ASSERT_LT(block, blocks);
                    ASSERT_TRUE(boundary[block] == stages + 1 ||
                                boundary[block] == b)
                        << "block " << block << " at two boundaries";
                    boundary[block] = b;
                    ++outputs[block];
                    if (b == stages)
                        continue;
                    std::uint32_t &up = parent[chain[b + 1]];
                    ASSERT_TRUE(up == kNone || up == block)
                        << "output " << d << " boundary " << b;
                    up = block;
                }
            }
            for (std::size_t b = 0; b <= stages; ++b) {
                std::set<std::uint32_t> seen;
                for (std::size_t link = 0; link < n; ++link) {
                    const std::uint32_t block = net.linkBlocks(b)[link];
                    seen.insert(block);
                    ASSERT_LT(block, blocks);
                    ASSERT_EQ(boundary[block], b);
                    ASSERT_EQ(outputs[block], n >> b);
                    if (b == stages) {
                        ASSERT_EQ(block, link);
                        continue;
                    }
                    const std::uint32_t *next = net.linkBlocks(b + 1);
                    const std::size_t box = net.boxOf(b, link);
                    const std::uint32_t upper = next[net.outputLink(box, 0)];
                    const std::uint32_t lower = next[net.outputLink(box, 1)];
                    ASSERT_NE(upper, lower);
                    ASSERT_EQ(parent[upper], block)
                        << "boundary " << b << " link " << link;
                    ASSERT_EQ(parent[lower], block);
                }
                EXPECT_EQ(seen.size(), std::size_t{1} << b);
            }
        }
    }
}

} // namespace
} // namespace topology
} // namespace rsin
