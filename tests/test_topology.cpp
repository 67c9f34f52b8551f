/**
 * @file
 * Tests for the multistage network structure: shuffle wiring, unique
 * paths, reachability, routing tags, and circuit-switched occupancy.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
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
            for (std::size_t l = 0; l < net.size(); ++l) {
                seen.insert(net.stagePosition(s, l));
                // inputLinks is the inverse permutation.
                EXPECT_EQ(net.inputLinks(s)[net.stagePosition(s, l)], l);
            }
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
                EXPECT_EQ(net.reachableOutputs(0, src).size(), n);
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
            EXPECT_EQ(net.reachableOutputs(b, path[b]).size(),
                      16u >> b);
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
    EXPECT_EQ(kindName(MultistageKind::Custom), "CUSTOM");
}

TEST(CustomTopologyTest, ReplicatesOmegaWiring)
{
    // A custom network built from the Omega permutation tables must be
    // structurally identical to the built-in Omega network.
    const MultistageNetwork omega(MultistageKind::Omega, 8);
    std::vector<std::vector<std::size_t>> perms(omega.stages());
    for (std::size_t s = 0; s < omega.stages(); ++s) {
        perms[s].resize(8);
        for (std::size_t l = 0; l < 8; ++l)
            perms[s][l] = omega.stagePosition(s, l);
    }
    const MultistageNetwork custom(std::move(perms));
    EXPECT_EQ(custom.size(), 8u);
    EXPECT_EQ(custom.stages(), 3u);
    for (std::size_t src = 0; src < 8; ++src)
        for (std::size_t dst = 0; dst < 8; ++dst)
            EXPECT_EQ(custom.path(src, dst), omega.path(src, dst));
}

TEST(CustomTopologyTest, ValidatesPermutations)
{
    // Ragged table.
    EXPECT_THROW(MultistageNetwork({{0, 1, 2, 3}, {0, 1}}), FatalError);
    // Not a permutation (duplicate).
    EXPECT_THROW(MultistageNetwork({{0, 0, 1, 2}}), FatalError);
    // Width not a power of two.
    EXPECT_THROW(MultistageNetwork({{0, 1, 2}}), FatalError);
    // Empty.
    EXPECT_THROW(
        MultistageNetwork(std::vector<std::vector<std::size_t>>{}),
        FatalError);
}

TEST(CustomTopologyTest, RandomWiringsKeepReachabilityConsistent)
{
    // Random (generally non-banyan) wirings: reachability must still be
    // consistent with explicit path following, and every boundary link
    // must reach at least one output through its box.
    rsin::Rng rng(31);
    for (int trial = 0; trial < 20; ++trial) {
        const std::size_t n = 8;
        const std::size_t stages = 3;
        std::vector<std::vector<std::size_t>> perms(
            stages, std::vector<std::size_t>(n));
        for (auto &perm : perms) {
            for (std::size_t i = 0; i < n; ++i)
                perm[i] = i;
            rng.shuffle(perm);
        }
        const MultistageNetwork net(std::move(perms));
        for (std::size_t src = 0; src < n; ++src) {
            const auto reachable = net.reachableOutputs(0, src);
            ASSERT_FALSE(reachable.empty());
            ASSERT_LE(reachable.size(), n);
            for (std::size_t dst : reachable) {
                const auto path = net.path(src, dst);
                EXPECT_EQ(path.front(), src);
                EXPECT_EQ(path.back(), dst);
            }
        }
    }
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
    // reaches, reachableOutputs and routePort against a forward walk,
    // for the two banyans and for seeded random wirings (generally not
    // banyans: outputs missed or reached twice), at every width up to
    // 256 -- four 64-bit words per reachability row.
    rsin::Rng rng(19);
    for (std::size_t n = 2; n <= 256; n *= 2) {
        std::vector<MultistageNetwork> nets;
        nets.emplace_back(MultistageKind::Omega, n);
        nets.emplace_back(MultistageKind::IndirectCube, n);
        for (int trial = 0; trial < 2; ++trial) {
            std::vector<std::vector<std::size_t>> perms(
                nets.front().stages(), std::vector<std::size_t>(n));
            for (auto &perm : perms) {
                for (std::size_t i = 0; i < n; ++i)
                    perm[i] = i;
                rng.shuffle(perm);
            }
            nets.emplace_back(std::move(perms));
        }
        for (const MultistageNetwork &net : nets) {
            SCOPED_TRACE(kindName(net.kind()) + " n=" + std::to_string(n));
            for (std::size_t stage = 0; stage <= net.stages(); ++stage) {
                for (std::size_t link = 0; link < n; ++link) {
                    const std::vector<bool> want =
                        bruteForceReach(net, stage, link);
                    std::vector<std::size_t> listed;
                    for (std::size_t d = 0; d < n; ++d) {
                        ASSERT_EQ(net.reaches(stage, link, d), want[d])
                            << "stage " << stage << " link " << link
                            << " dst " << d;
                        if (want[d])
                            listed.push_back(d);
                    }
                    ASSERT_EQ(net.reachableOutputs(stage, link), listed);
                    if (stage == net.stages())
                        continue;
                    // routePort takes the upper output whenever it
                    // reaches the destination.
                    const std::size_t box = net.boxOf(stage, link);
                    const std::vector<bool> upper = bruteForceReach(
                        net, stage + 1, net.outputLink(box, 0));
                    for (std::size_t d : listed)
                        ASSERT_EQ(net.routePort(stage, link, d),
                                  upper[d] ? 0u : 1u);
                }
            }
        }
    }
}

TEST(TopologyTest, OutputBlocksHoldEveryReachSet)
{
    // Every output a boundary-b link reaches lies in that link's block,
    // which is the boundary-b block on the output's parent chain.  In
    // the two banyans the blocks are the reach sets themselves: 2^b at
    // boundary b, 2n-1 in all.  Seeded random wirings with one stage
    // more than a banyan have overlapping reach sets and get coarser
    // blocks.
    rsin::Rng rng(23);
    for (std::size_t n = 2; n <= 1024; n *= 2) {
        std::vector<MultistageNetwork> nets;
        nets.emplace_back(MultistageKind::Omega, n);
        nets.emplace_back(MultistageKind::IndirectCube, n);
        if (n <= 256) {
            std::vector<std::vector<std::size_t>> perms(
                nets.front().stages() + 1, std::vector<std::size_t>(n));
            for (auto &perm : perms) {
                for (std::size_t i = 0; i < n; ++i)
                    perm[i] = i;
                rng.shuffle(perm);
            }
            nets.emplace_back(std::move(perms));
        }
        for (const MultistageNetwork &net : nets) {
            SCOPED_TRACE(kindName(net.kind()) + " n=" + std::to_string(n));
            const bool banyan = net.kind() != MultistageKind::Custom;
            const std::size_t bounds = net.stages() + 1;
            // Boundary `stages` has n blocks, the next n/2 (a box joins
            // two single outputs), and each boundary up is coarser.
            if (banyan)
                EXPECT_EQ(net.blockCount(), 2 * n - 1);
            else
                EXPECT_LE(net.blockCount(), n + net.stages() * n / 2);
            // chain[d * bounds + b]: output d's block at boundary b.
            std::vector<std::uint32_t> chain(n * bounds);
            for (std::size_t d = 0; d < n; ++d) {
                std::uint32_t block = static_cast<std::uint32_t>(d);
                for (std::size_t b = bounds; b-- > 0;) {
                    ASSERT_LT(block, net.blockCount());
                    chain[d * bounds + b] = block;
                    block = net.blockParents()[block];
                }
                // The chain ends at a boundary-0 block, its own parent.
                EXPECT_EQ(block, chain[d * bounds]);
            }
            for (std::size_t b = 0; b < bounds; ++b) {
                std::vector<std::size_t> outputs(net.blockCount(), 0);
                for (std::size_t d = 0; d < n; ++d)
                    ++outputs[chain[d * bounds + b]];
                std::set<std::uint32_t> blocks;
                for (std::size_t link = 0; link < n; ++link) {
                    const std::uint32_t block = net.linkBlocks(b)[link];
                    blocks.insert(block);
                    const auto reach = net.reachableOutputs(b, link);
                    for (std::size_t d : reach) {
                        ASSERT_EQ(chain[d * bounds + b], block)
                            << "boundary " << b << " link " << link
                            << " output " << d;
                    }
                    if (banyan) {
                        ASSERT_EQ(outputs[block], reach.size());
                    }
                }
                if (banyan) {
                    EXPECT_EQ(blocks.size(), std::size_t{1} << b);
                }
            }
        }
    }
}

} // namespace
} // namespace topology
} // namespace rsin
