/**
 * @file
 * Tests for the scheduling layer: resource pools, the exact-status
 * distributed router, the clocked interchange-box scheduler, and the
 * centralized baselines -- including the paper's Section II mapping
 * example and the Fig. 11 rerouting example.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/contract.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "sched/centralized.hpp"
#include "sched/omega_boxes.hpp"
#include "sched/omega_router.hpp"
#include "sched/resource_pool.hpp"
#include "topology/multistage.hpp"

namespace rsin {
namespace sched {
namespace {

using topology::CircuitState;
using topology::MultistageKind;
using topology::MultistageNetwork;

TEST(ResourcePoolTest, UniformPoolCounts)
{
    ResourcePool pool(4, 3);
    EXPECT_EQ(pool.ports(), 4u);
    EXPECT_EQ(pool.totalResources(), 12u);
    EXPECT_EQ(pool.typeCount(), 1u);
    EXPECT_EQ(pool.freeCount(2), 3u);
    EXPECT_EQ(pool.totalFree(), 12u);
}

TEST(ResourcePoolTest, ClaimReleaseCycle)
{
    ResourcePool pool(2, 2);
    const auto ref = pool.claim(1);
    EXPECT_TRUE(ref.valid);
    EXPECT_EQ(pool.freeCount(1), 1u);
    pool.claim(1);
    EXPECT_EQ(pool.freeCount(1), 0u);
    EXPECT_FALSE(pool.hasFree(1));
    EXPECT_THROW(pool.claim(1), FatalError);
    pool.release(ref);
    EXPECT_EQ(pool.freeCount(1), 1u);
}

TEST(ResourcePoolTest, TypedPool)
{
    // Port 0: types {0, 1}; port 1: types {1, 1}.
    ResourcePool pool({{0, 1}, {1, 1}});
    EXPECT_EQ(pool.typeCount(), 2u);
    EXPECT_EQ(pool.freeCount(0, 0), 1u);
    EXPECT_EQ(pool.freeCount(0, 1), 1u);
    EXPECT_EQ(pool.freeCount(1, 0), 0u);
    EXPECT_EQ(pool.totalFree(1), 3u);
    const auto ref = pool.claim(0, 1);
    EXPECT_EQ(pool.typeOf(ref.port, ref.index), 1u);
    EXPECT_EQ(pool.freeCount(0, 1), 0u);
    EXPECT_THROW(pool.claim(1, 0), FatalError);
}

TEST(ResourcePoolTest, ForceBusyAndClear)
{
    ResourcePool pool(2, 1);
    pool.forceBusy(0, 0);
    EXPECT_FALSE(pool.hasFree(0));
    EXPECT_THROW(pool.forceBusy(0, 0), FatalError);
    pool.clear();
    EXPECT_TRUE(pool.hasFree(0));
}

TEST(OmegaRouterTest, AvailabilityCountsAllFreeResources)
{
    const MultistageNetwork net(MultistageKind::Omega, 8);
    CircuitState circuit(net);
    ResourcePool pool(8, 2);
    const OmegaRouter router(net);
    for (std::size_t src = 0; src < 8; ++src)
        EXPECT_EQ(router.availability(circuit, pool, src), 16u);
}

TEST(OmegaRouterTest, RouteClaimsPathAndResource)
{
    const MultistageNetwork net(MultistageKind::Omega, 8);
    CircuitState circuit(net);
    ResourcePool pool(8, 1);
    const OmegaRouter router(net);
    Rng rng(1);
    const auto route = router.tryRoute(circuit, pool, 3, rng);
    ASSERT_TRUE(route.has_value());
    EXPECT_EQ(route->path.size(), net.stages() + 1);
    EXPECT_EQ(route->path.front(), 3u);
    EXPECT_EQ(route->boxesTraversed, net.stages());
    EXPECT_FALSE(circuit.pathFree(route->path));
    EXPECT_EQ(pool.freeCount(route->outputPort), 0u);
    EXPECT_EQ(pool.totalFree(), 7u);
}

// Availability via the router's own API (wrapped so the test below
// reads naturally).
std::size_t
router_availability_probe(const MultistageNetwork &net,
                          const CircuitState &circuit,
                          const ResourcePool &pool, std::size_t src)
{
    return OmegaRouter(net).availability(circuit, pool, src);
}

TEST(OmegaRouterTest, SucceedsIffAvailabilityPositive)
{
    const MultistageNetwork net(MultistageKind::Omega, 8);
    Rng rng(2);
    Rng scenario_rng(77);
    for (int trial = 0; trial < 200; ++trial) {
        CircuitState circuit(net);
        ResourcePool pool(8, 1);
        // Random busy resources and random pre-existing circuits.
        for (std::size_t port = 0; port < 8; ++port)
            if (scenario_rng.bernoulli(0.5))
                pool.forceBusy(port, 0);
        for (int c = 0; c < 3; ++c) {
            const auto src = scenario_rng.uniformInt(std::uint64_t{8});
            const auto dst = scenario_rng.uniformInt(std::uint64_t{8});
            const auto path = net.path(src, dst);
            if (circuit.pathFree(path))
                circuit.claim(path);
        }
        const std::size_t src = scenario_rng.uniformInt(std::uint64_t{8});
        const std::size_t avail = router_availability_probe(
            net, circuit, pool, src);
        const OmegaRouter router(net);
        const auto route = router.tryRoute(circuit, pool, src, rng);
        EXPECT_EQ(route.has_value(), avail > 0);
        if (route) {
            EXPECT_GT(pool.resourcesOn(route->outputPort), 0u);
        }
    }
}

TEST(OmegaRouterTest, ExhaustsAllResources)
{
    // Repeated routing from round-robin inputs must allocate every
    // resource when transmissions never linger (we release each path
    // immediately, keeping the network clear).
    const MultistageNetwork net(MultistageKind::Omega, 16);
    CircuitState circuit(net);
    ResourcePool pool(16, 2);
    const OmegaRouter router(net);
    Rng rng(3);
    std::size_t routed = 0;
    for (std::size_t k = 0; k < 64; ++k) {
        const std::size_t src = k % 16;
        auto route = router.tryRoute(circuit, pool, src, rng);
        if (!route)
            break;
        circuit.release(route->path); // transmission done instantly
        ++routed;
    }
    EXPECT_EQ(routed, 32u);
    EXPECT_EQ(pool.totalFree(), 0u);
}

TEST(OmegaRouterTest, AddressedRouteBlocksOnBusyLink)
{
    const MultistageNetwork net(MultistageKind::Omega, 8);
    CircuitState circuit(net);
    ResourcePool pool(8, 1);
    const OmegaRouter router(net);
    // Claim the path 0 -> 0; now 4 -> 0 shares its final link (and
    // more), so tag routing to 0 must fail while the distributed
    // router still finds some other free resource.
    circuit.claim(net.path(0, 0));
    pool.claim(0);
    const auto blocked = router.tryRouteAddressed(circuit, pool, 4, 0);
    EXPECT_FALSE(blocked.has_value());
    Rng rng(4);
    const auto fallback = router.tryRoute(circuit, pool, 4, rng);
    EXPECT_TRUE(fallback.has_value());
}

TEST(OmegaRouterTest, TypedRoutingHonorsTypes)
{
    const MultistageNetwork net(MultistageKind::Omega, 4);
    CircuitState circuit(net);
    // Type 1 only on port 3.
    ResourcePool pool({{0}, {0}, {0}, {1}});
    const OmegaRouter router(net);
    Rng rng(5);
    const auto route = router.tryRoute(circuit, pool, 0, rng, 1);
    ASSERT_TRUE(route.has_value());
    EXPECT_EQ(route->outputPort, 3u);
    // No more type-1 resources anywhere.
    EXPECT_EQ(router.availability(circuit, pool, 1, 1), 0u);
}

TEST(SectionTwoExampleTest, MappingQualityMatchesPaper)
{
    // Paper Section II, 8x8 Omega, processors {0,1,2}, resources
    // {0,1,2}: four of the six distinct full mappings establish all
    // three connections; the two cyclic ones manage only two.
    const MultistageNetwork net(MultistageKind::Omega, 8);
    auto quality = [&](std::vector<Mapping> m) {
        return maxCompatibleSubset(net, m);
    };
    EXPECT_EQ(quality({{0, 0}, {1, 1}, {2, 2}}), 3u);
    EXPECT_EQ(quality({{0, 1}, {1, 0}, {2, 2}}), 3u);
    EXPECT_EQ(quality({{0, 2}, {1, 0}, {2, 1}}), 3u);
    EXPECT_EQ(quality({{0, 2}, {1, 1}, {2, 0}}), 3u);
    EXPECT_EQ(quality({{0, 0}, {1, 2}, {2, 1}}), 2u);
    EXPECT_EQ(quality({{0, 1}, {1, 2}, {2, 0}}), 2u);
}

TEST(OptimalMapperTest, FindsMaximumOnSectionTwoExample)
{
    const MultistageNetwork net(MultistageKind::Omega, 8);
    CircuitState circuit(net);
    const auto result =
        optimalMapping(net, circuit, {0, 1, 2}, {0, 1, 2});
    EXPECT_EQ(result.maxAllocations, 3u);
    EXPECT_EQ(result.mapping.size(), 3u);
    std::set<std::size_t> dsts;
    for (const auto &m : result.mapping)
        dsts.insert(m.dst);
    EXPECT_EQ(dsts.size(), 3u);
}

TEST(OptimalMapperTest, RespectsExistingCircuits)
{
    const MultistageNetwork net(MultistageKind::Omega, 8);
    CircuitState circuit(net);
    // Saturate output 0's final link.
    circuit.claim(net.path(0, 0));
    const auto result = optimalMapping(net, circuit, {1, 2}, {0, 4});
    // Output 0 is unreachable (its bus segment is held), so at most
    // one request (to output 4) can be served.
    EXPECT_EQ(result.maxAllocations, 1u);
    EXPECT_EQ(result.mapping[0].dst, 4u);
}

TEST(OptimalMapperTest, DistributedRouterMatchesOptimumOnFreeNetwork)
{
    // With an empty network and exact status, greedy distributed
    // routing serves requests one at a time and must reach the same
    // total as the exhaustive scheduler on these random scenarios.
    const MultistageNetwork net(MultistageKind::Omega, 8);
    Rng rng(11);
    for (int trial = 0; trial < 100; ++trial) {
        const std::size_t x = 1 + rng.uniformInt(std::uint64_t{4});
        const std::size_t y = 1 + rng.uniformInt(std::uint64_t{4});
        const auto sources = rng.sampleWithoutReplacement(8, x);
        const auto outputs = rng.sampleWithoutReplacement(8, y);

        CircuitState c1(net);
        const auto best = optimalMapping(net, c1, sources, outputs);

        CircuitState c2(net);
        ResourcePool pool(8, 1);
        for (std::size_t port = 0; port < 8; ++port) {
            if (std::find(outputs.begin(), outputs.end(), port) ==
                outputs.end())
                pool.forceBusy(port, 0);
        }
        const OmegaRouter router(net);
        std::size_t served = 0;
        for (std::size_t src : sources) {
            if (router.tryRoute(c2, pool, src, rng))
                ++served;
        }
        // Greedy sequential routing can trail the clairvoyant optimum,
        // but never beat it; on a free 8x8 it should be within one.
        EXPECT_LE(served, best.maxAllocations);
        EXPECT_GE(served + 1, best.maxAllocations);
    }
}

TEST(ClockedSchedulerTest, Fig11ExampleServesAllFour)
{
    // Paper Fig. 11: processors {0,3,4,5} request; resources {0,1,4,5}
    // free (one per port); the network starts free.  All four requests
    // are served, one after a reject/reroute, for an average of about
    // 3.5 boxes per request.
    const MultistageNetwork net(MultistageKind::Omega, 8);
    CircuitState circuit(net);
    ResourcePool pool(8, 1);
    for (std::size_t port : {2u, 3u, 6u, 7u})
        pool.forceBusy(port, 0);
    ClockedOmegaScheduler sched(net);
    Rng rng(13);
    const auto round =
        sched.scheduleRound(circuit, pool, {0, 3, 4, 5}, rng);
    EXPECT_EQ(round.served, 4u);
    std::set<std::size_t> ports;
    for (const auto &o : round.outcomes) {
        EXPECT_TRUE(o.served);
        ports.insert(o.outputPort);
        EXPECT_GE(o.boxesVisited, net.stages());
    }
    EXPECT_EQ(ports, (std::set<std::size_t>{0, 1, 4, 5}));
    // The deterministic count-steering policy reproduces the paper's
    // numbers exactly: one reject/reroute, 14 box visits over 4
    // requests = 3.5 on average.
    EXPECT_EQ(round.totalRejects, 1u);
    EXPECT_DOUBLE_EQ(round.meanBoxesPerServedRequest(), 3.5);
}

TEST(ClockedSchedulerTest, SingleRequestNeverRejected)
{
    // Alone in the network with correct initial status, a request
    // walks straight to a resource: stages boxes, no rejects.
    const MultistageNetwork net(MultistageKind::Omega, 16);
    Rng rng(17);
    for (std::size_t src = 0; src < 16; ++src) {
        CircuitState circuit(net);
        ResourcePool pool(16, 1);
        ClockedOmegaScheduler sched(net);
        const auto round = sched.scheduleRound(circuit, pool, {src}, rng);
        ASSERT_EQ(round.served, 1u);
        EXPECT_EQ(round.outcomes[0].boxesVisited, net.stages());
        EXPECT_EQ(round.outcomes[0].rejects, 0u);
        EXPECT_EQ(round.outcomes[0].launches, 1u);
    }
}

TEST(ClockedSchedulerTest, NoResourcesMeansNoService)
{
    const MultistageNetwork net(MultistageKind::Omega, 8);
    CircuitState circuit(net);
    ResourcePool pool(8, 1);
    for (std::size_t port = 0; port < 8; ++port)
        pool.forceBusy(port, 0);
    ClockedOmegaScheduler sched(net);
    Rng rng(19);
    const auto round = sched.scheduleRound(circuit, pool, {0, 1}, rng);
    EXPECT_EQ(round.served, 0u);
    for (const auto &o : round.outcomes)
        EXPECT_EQ(o.launches, 0u); // status showed nothing reachable
}

TEST(ClockedSchedulerTest, ServesAsManyAsResourcesAllow)
{
    const MultistageNetwork net(MultistageKind::Omega, 8);
    Rng rng(23);
    Rng scen(29);
    for (int trial = 0; trial < 50; ++trial) {
        CircuitState circuit(net);
        ResourcePool pool(8, 1);
        const std::size_t y = 1 + scen.uniformInt(std::uint64_t{8});
        const auto frees = scen.sampleWithoutReplacement(8, y);
        for (std::size_t port = 0; port < 8; ++port) {
            if (std::find(frees.begin(), frees.end(), port) ==
                frees.end())
                pool.forceBusy(port, 0);
        }
        const std::size_t x = 1 + scen.uniformInt(std::uint64_t{8});
        const auto sources = scen.sampleWithoutReplacement(8, x);
        ClockedOmegaScheduler sched(net);
        const auto round =
            sched.scheduleRound(circuit, pool, sources, rng);
        EXPECT_LE(round.served, std::min(x, y));
        EXPECT_GE(round.served, 1u); // something is always routable
        // Served paths really are claimed and resources taken.
        EXPECT_EQ(pool.totalFree(), y - round.served);
    }
}

TEST(FaultToleranceTest, DistributedRoutesAroundFailedLinks)
{
    // Model a failed inter-stage wire as a permanently claimed
    // segment.  The distributed scheduler, which may pick *any* free
    // resource, keeps serving from the reachable part of the pool;
    // address mapping to outputs behind the failure is dead.
    const MultistageNetwork net(MultistageKind::Omega, 8);
    CircuitState circuit(net);
    // Fail the boundary-1 segment that input 0's upper stage-0 port
    // feeds; outputs reachable only through it become unreachable
    // from input 0.
    const std::size_t box0 = net.boxOf(0, 0);
    const std::size_t dead_link = net.outputLink(box0, 0);
    circuit.claimSegment(1, dead_link);

    ResourcePool pool(8, 1);
    const OmegaRouter router(net);
    Rng rng(71);
    // Availability from input 0 halves (one subtree lost) but stays
    // positive, so routing succeeds.
    const std::size_t avail = router.availability(circuit, pool, 0);
    EXPECT_EQ(avail, 4u);
    const auto route = router.tryRoute(circuit, pool, 0, rng);
    ASSERT_TRUE(route.has_value());
    // The reached output must be in the surviving subtree.
    EXPECT_TRUE(net.reaches(1, net.outputLink(box0, 1),
                            route->outputPort));

    // Address mapping to a stranded output fails outright even though
    // that output's resource is free.
    const auto stranded = net.reachableOutputs(1, dead_link);
    ASSERT_FALSE(stranded.empty());
    CircuitState circuit2(net);
    circuit2.claimSegment(1, dead_link);
    ResourcePool pool2(8, 1);
    EXPECT_FALSE(router
                     .tryRouteAddressed(circuit2, pool2, 0,
                                        stranded.front())
                     .has_value());
}

TEST(FaultToleranceTest, ClockedSchedulerSurvivesFailedLink)
{
    const MultistageNetwork net(MultistageKind::Omega, 8);
    CircuitState circuit(net);
    const std::size_t dead_link = net.outputLink(net.boxOf(0, 0), 0);
    circuit.claimSegment(1, dead_link);
    ResourcePool pool(8, 1);
    ClockedOmegaScheduler sched(net);
    Rng rng(73);
    const auto round =
        sched.scheduleRound(circuit, pool, {0, 1, 2, 3}, rng);
    // Capacity behind the failure is lost, but everything the healthy
    // half can serve is served.
    EXPECT_GE(round.served, 3u);
    for (const auto &o : round.outcomes) {
        if (o.served) {
            EXPECT_TRUE(net.reaches(0, o.src, o.outputPort));
        }
    }
}

TEST(FaultToleranceTest, FullSubtreeLossIsDetectedByStatus)
{
    // Fail both output segments of input 0's stage-0 box: input 0 can
    // reach nothing, and the status system must say so (availability
    // zero => no launch in the clocked model, no spin).
    const MultistageNetwork net(MultistageKind::Omega, 8);
    CircuitState circuit(net);
    const std::size_t box0 = net.boxOf(0, 0);
    circuit.claimSegment(1, net.outputLink(box0, 0));
    circuit.claimSegment(1, net.outputLink(box0, 1));
    ResourcePool pool(8, 1);
    const OmegaRouter router(net);
    EXPECT_EQ(router.availability(circuit, pool, 0), 0u);
    Rng rng(79);
    EXPECT_FALSE(router.tryRoute(circuit, pool, 0, rng).has_value());
    ClockedOmegaScheduler sched(net);
    const auto round = sched.scheduleRound(circuit, pool, {0}, rng);
    EXPECT_EQ(round.served, 0u);
    EXPECT_EQ(round.outcomes[0].launches, 0u);
}

/** Typed pool: @p per_port resources on each of @p ports ports, types
 *  dealt round-robin over @p types. */
ResourcePool
dealtPool(std::size_t ports, std::size_t per_port, std::size_t types)
{
    std::vector<std::vector<std::size_t>> layout(
        ports, std::vector<std::size_t>(per_port, 0));
    std::size_t deal = 0;
    for (auto &port : layout)
        for (auto &type : port)
            type = deal++ % types;
    return ResourcePool(std::move(layout));
}

std::size_t
pick(Rng &rng, std::size_t n)
{
    return static_cast<std::size_t>(rng.uniformInt(std::uint64_t{n}));
}

TEST(AvailabilityRegistersTest, IncrementalUpdatesMatchRebuild)
{
    // Random routes, transmission ends (path releases) and service ends
    // (resource releases) against registers kept current by cone
    // refreshes.  After every step they must equal a from-scratch
    // build, and a second network routed through the stateless calls
    // with the same random stream must make the same decisions.
    for (const MultistageKind kind :
         {MultistageKind::Omega, MultistageKind::IndirectCube}) {
        for (const std::size_t n : {2u, 4u, 16u, 64u, 256u}) {
            for (std::size_t types = 1; types <= 4; ++types) {
                SCOPED_TRACE(kindName(kind) + " n=" + std::to_string(n) +
                             " types=" + std::to_string(types));
                const MultistageNetwork net(kind, n);
                CircuitState circuit(net);
                ResourcePool pool = dealtPool(n, 2, types);
                AvailabilityRegisters registers(circuit, pool);
                CircuitState oracle_circuit(net);
                ResourcePool oracle_pool = dealtPool(n, 2, types);
                const OmegaRouter router(net, RoutingPolicy::RandomTie);
                Rng route_rng(n * 10 + types);
                Rng oracle_rng(n * 10 + types);
                Rng step_rng(n * 100 + types);
                std::vector<RouteResult> transmitting;
                std::vector<ResourceRef> serving;
                for (int step = 0; step < 300; ++step) {
                    switch (pick(step_rng, 3)) {
                      case 0: {
                        const std::size_t src = pick(step_rng, n);
                        const std::size_t type =
                            pick(step_rng, types + 1); // incl. absent
                        ASSERT_EQ(registers.count(type, 0, src),
                                  router.availability(circuit, pool, src,
                                                      type));
                        auto route = router.tryRoute(registers, circuit,
                                                     pool, src, route_rng,
                                                     type);
                        const auto oracle = router.tryRoute(
                            oracle_circuit, oracle_pool, src, oracle_rng,
                            type);
                        ASSERT_EQ(route.has_value(), oracle.has_value());
                        if (route) {
                            EXPECT_EQ(route->path, oracle->path);
                            EXPECT_EQ(route->resource.index,
                                      oracle->resource.index);
                            transmitting.push_back(std::move(*route));
                        }
                        break;
                      }
                      case 1: {
                        if (transmitting.empty())
                            break;
                        const std::size_t k =
                            pick(step_rng, transmitting.size());
                        const RouteResult done = transmitting[k];
                        transmitting.erase(transmitting.begin() +
                                           static_cast<std::ptrdiff_t>(k));
                        circuit.release(done.path);
                        oracle_circuit.release(done.path);
                        registers.refresh(done.outputPort);
                        serving.push_back(done.resource);
                        break;
                      }
                      default: {
                        if (serving.empty())
                            break;
                        const std::size_t k = pick(step_rng, serving.size());
                        const ResourceRef ref = serving[k];
                        serving.erase(serving.begin() +
                                      static_cast<std::ptrdiff_t>(k));
                        pool.release(ref);
                        oracle_pool.release(ref);
                        registers.refresh(ref.port,
                                          pool.typeOf(ref.port, ref.index));
                        break;
                      }
                    }
                    ASSERT_TRUE(registers ==
                                AvailabilityRegisters(circuit, pool))
                        << "step " << step;
                }
            }
        }
    }
}

TEST(AvailabilityRegistersTest, StaleRegistersTripTheRebuildContract)
{
#if RSIN_CONTRACTS_ENABLED
    // A change the owner forgot to refresh leaves the registers behind
    // a rebuild; the next refresh's contract check must catch it.
    ScopedPanicThrows guard;
    const MultistageNetwork net(MultistageKind::Omega, 8);
    CircuitState circuit(net);
    ResourcePool pool(8, 1);
    AvailabilityRegisters registers(circuit, pool);
    pool.claim(3);
    EXPECT_THROW(registers.refresh(4), PanicError);
#else
    GTEST_SKIP() << "contract checks compiled out "
                    "(reconfigure with -DRSIN_CONTRACTS=ON)";
#endif
}

TEST(CentralizedDelayTest, ModelsScaleAsClaimed)
{
    CentralizedDelayModel model{16, 64};
    EXPECT_EQ(model.treeSelectDelay(), 128u);   // O(m)
    EXPECT_EQ(model.prioritySelectDelay(), 6u); // log2 64
    EXPECT_EQ(model.switchSetDelay(), 10u);     // log2(16*64)
    EXPECT_EQ(model.serveAll(16, false), 16u * (6 + 10));
    EXPECT_GT(model.serveAll(16, true), model.serveAll(16, false));
}

TEST(CentralizedDelayTest, CeilLog2)
{
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(2), 1u);
    EXPECT_EQ(ceilLog2(3), 2u);
    EXPECT_EQ(ceilLog2(16), 4u);
    EXPECT_EQ(ceilLog2(17), 5u);
    EXPECT_THROW(ceilLog2(0), FatalError);
}

} // namespace
} // namespace sched
} // namespace rsin
