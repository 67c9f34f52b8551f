/**
 * @file
 * Tests for the multistage network structure: shuffle wiring, unique
 * paths, reachability, routing tags, and circuit-switched occupancy.
 */

#include <gtest/gtest.h>

#include <set>

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

} // namespace
} // namespace topology
} // namespace rsin
