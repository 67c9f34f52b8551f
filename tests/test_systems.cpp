/**
 * @file
 * Tests for the three event-driven system models, validated against
 * the analytical solvers and closed-form queueing limits.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "queueing/mm_queues.hpp"
#include "rsin/analysis.hpp"
#include "rsin/factory.hpp"

namespace rsin {
namespace {

workload::WorkloadParams
makeParams(double lambda, double mu_n, double mu_s)
{
    workload::WorkloadParams p;
    p.lambda = lambda;
    p.muN = mu_n;
    p.muS = mu_s;
    return p;
}

SimOptions
quickOptions(std::uint64_t seed = 1)
{
    SimOptions o;
    o.seed = seed;
    o.warmupTasks = 2000;
    o.measureTasks = 20000;
    return o;
}

TEST(SbusSystemTest, MatchesMarkovAnalysis)
{
    // One bus, 4 processors, 2 resources -- the Fig. 3 chain exactly.
    const auto cfg = SystemConfig::parse("4/1x1x1 SBUS/2");
    const auto params = makeParams(0.08, 1.0, 0.5);
    const auto analytic =
        analyzeSbus(cfg, params.lambda, params.muN, params.muS);
    ASSERT_TRUE(analytic.stable);
    const auto sim = simulate(cfg, params, quickOptions());
    ASSERT_FALSE(sim.saturated);
    EXPECT_NEAR(sim.meanDelay, analytic.queueingDelay,
                0.12 * analytic.queueingDelay + 0.01);
}

TEST(SbusSystemTest, PartitionsAreIndependent)
{
    // 4 partitions of 2 processors behave like one partition of 2,
    // statistically.
    const auto one = SystemConfig::parse("2/1x1x1 SBUS/4");
    const auto four = SystemConfig::parse("8/4x1x1 SBUS/4");
    const auto params = makeParams(0.1, 1.0, 0.3);
    const auto r1 = simulate(one, params, quickOptions(3));
    const auto r4 = simulate(four, params, quickOptions(4));
    EXPECT_NEAR(r1.meanDelay, r4.meanDelay,
                0.15 * std::max(r1.meanDelay, 0.05) + 0.01);
}

TEST(SbusSystemTest, SaturationDetected)
{
    const auto cfg = SystemConfig::parse("4/1x1x1 SBUS/1");
    const auto params = makeParams(5.0, 1.0, 1.0); // far beyond capacity
    SimOptions opts = quickOptions();
    opts.saturationQueueLimit = 2000;
    const auto res = simulate(cfg, params, opts);
    EXPECT_TRUE(res.saturated);
}

TEST(SbusSystemTest, ZeroLoadCompletesNothing)
{
    const auto cfg = SystemConfig::parse("4/1x1x1 SBUS/2");
    const auto res = simulate(cfg, makeParams(0.0, 1.0, 1.0),
                              quickOptions());
    EXPECT_EQ(res.completedTasks, 0u);
    // No completions means no estimate: NoData with NaN sentinels, not
    // a zero-delay "success".
    EXPECT_EQ(res.status, RunStatus::NoData);
    EXPECT_FALSE(res.saturated);
    EXPECT_TRUE(std::isnan(res.meanDelay));
    EXPECT_TRUE(std::isnan(res.normalizedDelay));
}

TEST(XbarSystemTest, PrivatePortsMatchMmc)
{
    // A 4x8 crossbar with r=1 and fast transmission approximates
    // M/M/8 at the resources (almost no transmit interference).
    const auto cfg = SystemConfig::parse("4/1x4x8 XBAR/1");
    const auto params = makeParams(0.9, 100.0, 0.6);
    const auto res = simulate(cfg, params, quickOptions(5));
    const auto ref = queueing::mmc(4 * params.lambda, params.muS, 8);
    ASSERT_FALSE(res.saturated);
    EXPECT_NEAR(res.meanDelay, ref.meanWait,
                0.15 * ref.meanWait + 0.01);
}

TEST(XbarSystemTest, LightLoadApproximationHolds)
{
    // Section IV: under light load the crossbar behaves as a private
    // bus with k*r resources per processor.
    const auto cfg = SystemConfig::parse("8/1x8x8 XBAR/2");
    const auto params = makeParams(0.05, 1.0, 0.1);
    const auto approx =
        xbarLightLoad(cfg, params.lambda, params.muN, params.muS);
    const auto res = simulate(cfg, params, quickOptions(6));
    ASSERT_FALSE(res.saturated);
    // The paper deems the approximation good while mu_s * d <= 1.
    ASSERT_LE(res.normalizedDelay, 1.0);
    EXPECT_NEAR(res.meanDelay, approx.queueingDelay,
                0.2 * approx.queueingDelay + 0.02);
}

TEST(XbarSystemTest, ArbitrationPoliciesAgreeOnMeanDelay)
{
    // Work conservation: the time-average delay is insensitive to the
    // arbitration order (priority vs token) for this workload.
    const auto cfg = SystemConfig::parse("8/1x8x4 XBAR/2");
    const auto params = makeParams(0.15, 1.0, 0.4);
    ModelOptions prio, token;
    prio.xbarArbitration = XbarArbitration::IndexPriority;
    token.xbarArbitration = XbarArbitration::RandomToken;
    const auto a = simulate(cfg, params, quickOptions(7), prio);
    const auto b = simulate(cfg, params, quickOptions(8), token);
    ASSERT_FALSE(a.saturated);
    ASSERT_FALSE(b.saturated);
    EXPECT_NEAR(a.meanDelay, b.meanDelay,
                0.15 * std::max(a.meanDelay, 0.05) + 0.01);
}

TEST(OmegaSystemTest, LightLoadNearCrossbar)
{
    // Under light load the Omega network blocks rarely, so its delay
    // approaches the (nonblocking) crossbar's.
    const auto omega_cfg = SystemConfig::parse("8/1x8x8 OMEGA/2");
    const auto xbar_cfg = SystemConfig::parse("8/1x8x8 XBAR/2");
    const auto params = makeParams(0.08, 1.0, 0.5);
    const auto o = simulate(omega_cfg, params, quickOptions(9));
    const auto x = simulate(xbar_cfg, params, quickOptions(10));
    ASSERT_FALSE(o.saturated);
    ASSERT_FALSE(x.saturated);
    EXPECT_NEAR(o.meanDelay, x.meanDelay,
                0.2 * std::max(x.meanDelay, 0.05) + 0.02);
    EXPECT_GE(o.meanDelay, x.meanDelay * 0.8); // crossbar lower-bounds
}

TEST(OmegaSystemTest, BoxesTraversedEqualsStages)
{
    const auto cfg = SystemConfig::parse("16/1x16x16 OMEGA/2");
    const auto res = simulate(cfg, makeParams(0.05, 1.0, 1.0),
                              quickOptions(11));
    EXPECT_NEAR(res.meanBoxesTraversed, 4.0, 1e-9); // log2(16)
}

TEST(OmegaSystemTest, DistributedBeatsAddressMapping)
{
    // The RSIN claim: tag routing to a centrally chosen random free
    // resource blocks more, hence longer delays at moderate load.
    const auto cfg = SystemConfig::parse("8/1x8x8 OMEGA/1");
    const auto params = makeParams(0.1, 1.0, 1.0);
    ModelOptions distributed, addressed;
    addressed.omega.scheduling = OmegaScheduling::AddressRandomFree;
    const auto d = simulate(cfg, params, quickOptions(12), distributed);
    const auto a = simulate(cfg, params, quickOptions(13), addressed);
    ASSERT_FALSE(d.saturated);
    ASSERT_FALSE(a.saturated);
    EXPECT_LT(d.meanDelay, a.meanDelay * 1.05);
}

TEST(OmegaSystemTest, CubeWiringWorksToo)
{
    const auto cfg = SystemConfig::parse("8/1x8x8 CUBE/2");
    const auto res = simulate(cfg, makeParams(0.1, 1.0, 0.5),
                              quickOptions(14));
    ASSERT_FALSE(res.saturated);
    EXPECT_GT(res.completedTasks, 0u);
}

TEST(OmegaSystemTest, TypedResourcesServeTypedTasks)
{
    const auto cfg = SystemConfig::parse("8/1x8x8 OMEGA/2");
    auto params = makeParams(0.05, 1.0, 0.5);
    params.resourceTypes = 4;
    const auto res = simulate(cfg, params, quickOptions(15));
    ASSERT_FALSE(res.saturated);
    EXPECT_GT(res.completedTasks, 10000u);
}

TEST(FactoryTest, BuildsEveryClass)
{
    const auto params = makeParams(0.01, 1.0, 1.0);
    SimOptions opts = quickOptions();
    for (const char *text :
         {"4/4x1x1 SBUS/2", "4/1x4x4 XBAR/1", "4/1x4x4 OMEGA/1",
          "4/1x4x4 CUBE/1"}) {
        const auto cfg = SystemConfig::parse(text);
        EXPECT_NE(makeSystem(cfg, params, opts), nullptr) << text;
    }
}

TEST(FactoryTest, ReplicationTightensOrMatches)
{
    const auto cfg = SystemConfig::parse("4/1x1x1 SBUS/2");
    const auto params = makeParams(0.1, 1.0, 0.5);
    SimOptions opts = quickOptions(21);
    opts.measureTasks = 5000;
    const auto rep = simulateReplicated(cfg, params, opts, 5);
    EXPECT_FALSE(rep.saturated);
    const auto analytic =
        analyzeSbus(cfg, params.lambda, params.muN, params.muS);
    EXPECT_NEAR(rep.meanDelay, analytic.queueingDelay,
                0.15 * analytic.queueingDelay + 0.01);
}

TEST(XbarSystemTest, IndexPriorityIsUnfairTokenIsNot)
{
    // Section IV: the wave design favours low indices.  At moderate
    // contention the per-processor delay spread under index priority
    // far exceeds the token scheme's, while means stay comparable.
    const auto cfg = SystemConfig::parse("8/1x8x4 XBAR/2");
    const auto params = makeParams(0.28, 1.0, 1.0);
    ModelOptions prio, fifo;
    prio.xbarArbitration = XbarArbitration::IndexPriority;
    fifo.xbarArbitration = XbarArbitration::FifoArrival;
    SimOptions opts = quickOptions(61);
    opts.measureTasks = 40000;
    const auto a = simulate(cfg, params, opts, prio);
    const auto b = simulate(cfg, params, opts, fifo);
    ASSERT_FALSE(a.saturated);
    ASSERT_FALSE(b.saturated);
    EXPECT_GT(a.delayImbalance, 2.0 * b.delayImbalance);
}

TEST(SystemDistributionTest, VariabilityOrdersDelay)
{
    // Deterministic < exponential < hyperexponential service at the
    // same utilization (a classic queueing ordering the simulator must
    // respect).
    const auto cfg = SystemConfig::parse("4/1x1x1 SBUS/2");
    auto run = [&](workload::TimeDistribution dist, std::uint64_t seed) {
        // pλ = 0.34 against a saturation throughput of ~0.44.
        auto params = makeParams(0.085, 1.0, 0.3);
        params.serviceDist = dist;
        SimOptions opts = quickOptions(seed);
        opts.measureTasks = 40000;
        const auto res = simulate(cfg, params, opts);
        EXPECT_FALSE(res.saturated);
        return res.meanDelay;
    };
    const double det = run(workload::TimeDistribution::Deterministic, 71);
    const double exp = run(workload::TimeDistribution::Exponential, 72);
    const double hyp = run(workload::TimeDistribution::Hyper2, 73);
    EXPECT_LT(det, exp);
    EXPECT_LT(exp, hyp);
}

TEST(OmegaSystemTest, ClockedHardwareTracksExactStatusModel)
{
    // The clocked boxes (stale status, rejects, reroutes) must deliver
    // nearly the same delay as the instantaneous-status idealization --
    // the paper's justification for analyzing with assumption (c).
    const auto cfg = SystemConfig::parse("8/1x8x8 OMEGA/2");
    const auto params = makeParams(0.15, 1.0, 0.5);
    ModelOptions exact, clocked;
    clocked.omega.scheduling = OmegaScheduling::DistributedClocked;
    const auto a = simulate(cfg, params, quickOptions(91), exact);
    const auto b = simulate(cfg, params, quickOptions(92), clocked);
    ASSERT_FALSE(a.saturated);
    ASSERT_FALSE(b.saturated);
    EXPECT_NEAR(b.meanDelay, a.meanDelay,
                0.15 * std::max(a.meanDelay, 0.02) + 0.01);
    // Stale status can only add boxes (reroutes), never remove.
    EXPECT_GE(b.meanBoxesTraversed, a.meanBoxesTraversed - 1e-9);
}

TEST(OmegaSystemTest, ClockedModeRejectsTypedWorkloads)
{
    const auto cfg = SystemConfig::parse("8/1x8x8 OMEGA/2");
    auto params = makeParams(0.05, 1.0, 0.5);
    params.resourceTypes = 2;
    ModelOptions clocked;
    clocked.omega.scheduling = OmegaScheduling::DistributedClocked;
    EXPECT_THROW(simulate(cfg, params, quickOptions(93), clocked),
                 FatalError);
}

TEST(OmegaSystemTest, ClusteredPlacementCostsDelay)
{
    const auto cfg = SystemConfig::parse("16/1x16x16 OMEGA/2");
    auto params = makeParams(0.0, 1.0, 1.0);
    params.resourceTypes = 4;
    params.lambda = lambdaForRho(cfg, 0.5, params.muN, params.muS);
    ModelOptions spread, clustered;
    spread.omega.placement = TypePlacement::RoundRobin;
    clustered.omega.placement = TypePlacement::Clustered;
    SimOptions opts = quickOptions(81);
    const auto a = simulate(cfg, params, opts, spread);
    const auto b = simulate(cfg, params, opts, clustered);
    ASSERT_FALSE(a.saturated);
    ASSERT_FALSE(b.saturated);
    EXPECT_GT(b.meanDelay, 1.3 * a.meanDelay);
}

TEST(OmegaSystemTest, ReturnNetworkLengthensResponseNotDelay)
{
    // Section II: results return over a separate address-mapping
    // network.  Modeling it adds return queueing/transmission to the
    // response time but leaves the forward queueing delay d unchanged
    // (statistically).
    const auto cfg = SystemConfig::parse("8/1x8x8 OMEGA/2");
    const auto params = makeParams(0.1, 1.0, 0.5);
    ModelOptions without, with;
    with.omega.modelReturnNetwork = true;
    const auto a = simulate(cfg, params, quickOptions(95), without);
    const auto b = simulate(cfg, params, quickOptions(95), with);
    ASSERT_FALSE(a.saturated);
    ASSERT_FALSE(b.saturated);
    // Return transmission has mean 1/muN = 1; response grows by at
    // least that much.
    EXPECT_GT(b.meanResponse, a.meanResponse + 0.8);
    EXPECT_NEAR(b.meanDelay, a.meanDelay,
                0.15 * std::max(a.meanDelay, 0.02) + 0.01);
}

TEST(OmegaSystemTest, FastReturnNetworkCostsLittle)
{
    const auto cfg = SystemConfig::parse("8/1x8x8 OMEGA/2");
    const auto params = makeParams(0.1, 1.0, 0.5);
    ModelOptions without, with;
    with.omega.modelReturnNetwork = true;
    with.omega.muReturn = 1000.0; // near-instant result return
    const auto a = simulate(cfg, params, quickOptions(96), without);
    const auto b = simulate(cfg, params, quickOptions(96), with);
    ASSERT_FALSE(b.saturated);
    EXPECT_NEAR(b.meanResponse, a.meanResponse,
                0.1 * a.meanResponse + 0.02);
}

TEST(XbarSystemTest, GateLevelFabricMatchesBehavioralModelExactly)
{
    // Driving the real 11-gate cells inside the simulation must make
    // the *same* allocation decisions as the behavioral index-priority
    // dispatcher: with a common seed the two runs are bit-identical.
    const auto cfg = SystemConfig::parse("6/1x6x3 XBAR/2");
    auto params = makeParams(0.12, 1.0, 0.5);
    ModelOptions behavioral, gate;
    behavioral.xbarArbitration = XbarArbitration::IndexPriority;
    gate.xbarArbitration = XbarArbitration::GateLevel;
    SimOptions opts = quickOptions(111);
    opts.warmupTasks = 300;
    opts.measureTasks = 3000;
    const auto a = simulate(cfg, params, opts, behavioral);
    const auto b = simulate(cfg, params, opts, gate);
    ASSERT_FALSE(a.saturated);
    EXPECT_DOUBLE_EQ(a.meanDelay, b.meanDelay);
    EXPECT_EQ(a.completedTasks, b.completedTasks);
    EXPECT_DOUBLE_EQ(a.simulatedTime, b.simulatedTime);
}

TEST(SimResultTest, DelayQuantilesOrdered)
{
    const auto cfg = SystemConfig::parse("8/1x8x4 XBAR/2");
    const auto params = makeParams(0.15, 1.0, 0.5);
    const auto res = simulate(cfg, params, quickOptions(112));
    ASSERT_FALSE(res.saturated);
    EXPECT_GE(res.delayP95, res.meanDelay * 0.5);
    EXPECT_GE(res.delayP99, res.delayP95);
    // Exponential-ish tails: p99 well above the mean at this load.
    EXPECT_GT(res.delayP99, res.meanDelay);
}

TEST(LittleLawTest, HoldsAcrossSystemClasses)
{
    // E[Nq] = p * lambda * d must hold for every model -- a strong
    // whole-simulator conservation check (queue tracking, delay
    // stamping and clock advance must all be consistent).
    for (const char *text : {"4/1x1x1 SBUS/2", "8/1x8x4 XBAR/2",
                             "8/1x8x8 OMEGA/2"}) {
        const auto cfg = SystemConfig::parse(text);
        const auto params = makeParams(0.12, 1.0, 0.4);
        SimOptions opts = quickOptions(101);
        opts.measureTasks = 40000;
        opts.warmupTasks = 4000;
        const auto res = simulate(cfg, params, opts);
        ASSERT_FALSE(res.saturated) << text;
        const double expected = static_cast<double>(cfg.processors) *
                                params.lambda * res.meanDelay;
        EXPECT_NEAR(res.timeAvgQueue, expected,
                    0.1 * std::max(expected, 0.02) + 0.01)
            << text;
    }
}

TEST(PastaTest, NoWaitProbabilityMatchesMarkov)
{
    // By PASTA, the fraction of tasks that start transmitting at
    // arrival equals the stationary probability of an idle bus with a
    // free resource; compare simulator and Markov chain.
    const auto cfg = SystemConfig::parse("4/1x1x1 SBUS/2");
    const auto params = makeParams(0.1, 1.0, 0.4);
    const auto analytic =
        analyzeSbus(cfg, params.lambda, params.muN, params.muS);
    ASSERT_TRUE(analytic.stable);
    ASSERT_GT(analytic.probNoWait, 0.0);
    SimOptions opts = quickOptions(121);
    opts.measureTasks = 40000;
    const auto sim = simulate(cfg, params, opts);
    ASSERT_FALSE(sim.saturated);
    EXPECT_NEAR(sim.fractionNoWait, analytic.probNoWait, 0.02);
}

TEST(SimulationDeterminismTest, SameSeedSameResult)
{
    const auto cfg = SystemConfig::parse("8/1x8x8 OMEGA/2");
    const auto params = makeParams(0.1, 1.0, 0.5);
    const auto a = simulate(cfg, params, quickOptions(42));
    const auto b = simulate(cfg, params, quickOptions(42));
    EXPECT_DOUBLE_EQ(a.meanDelay, b.meanDelay);
    EXPECT_EQ(a.completedTasks, b.completedTasks);
    EXPECT_DOUBLE_EQ(a.simulatedTime, b.simulatedTime);
}

std::uint64_t
doubleBits(double v)
{
    std::uint64_t b = 0;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

/** One golden cell: a model, and the bit patterns it must reproduce. */
struct GoldenCell
{
    const char *label;
    const char *config;
    std::size_t resourceTypes;
    ModelOptions model;
    std::uint64_t meanDelay;
    std::uint64_t timeAvgQueue;
    std::uint64_t delayHalfWidth;
    std::uint64_t delayP99;
    std::uint64_t fired;
    std::uint64_t completed;
};

ModelOptions
xbarModel(XbarArbitration arbitration)
{
    ModelOptions m;
    m.xbarArbitration = arbitration;
    return m;
}

ModelOptions
omegaModel(OmegaScheduling scheduling,
           sched::RoutingPolicy policy = sched::RoutingPolicy::MostResources)
{
    ModelOptions m;
    m.omega.scheduling = scheduling;
    m.omega.policy = policy;
    return m;
}

TEST(GoldenRunTest, EventLocalDispatchReproducesWholeSystemScan)
{
    // Bit patterns recorded with the dispatcher that re-scanned every
    // network after every event.  Re-dispatching a network no event
    // touched is a no-op whenever a failed attempt draws no random
    // number and cannot succeed on unchanged state, so event-local
    // dispatch must reproduce them exactly: every arbitration, policy
    // and extension below, on two networks wherever the mode allows.
    // (address-first and address-random retry differently once other
    // networks exist, so they are pinned on one network only.)
    using S = OmegaScheduling;
    using P = sched::RoutingPolicy;
    ModelOptions with_return = omegaModel(S::Distributed);
    with_return.omega.modelReturnNetwork = true;
    const std::vector<GoldenCell> cells = {
        {"sbus", "16/4x1x1 SBUS/2", 1, {}, 0x40168ddbe2cddcb8,
         0x40251865b95fb8f1, 0x3ff819d557405e13, 0x403b0bef46109e0a,
         9622, 3200},
        {"xbar-index", "16/2x8x4 XBAR/2", 1,
         xbarModel(XbarArbitration::IndexPriority), 0x3fe0dc58ffaca7f3,
         0x3ffa81dba1d4dacd, 0x3fc22f14eca22bb6, 0x401907aaf94d08f2,
         9618, 3200},
        {"xbar-fifo", "16/2x8x4 XBAR/2", 1,
         xbarModel(XbarArbitration::FifoArrival), 0x3fe0ee2f96d70e57,
         0x3ffa9aa3190e94a8, 0x3fc01430bd7fabf9, 0x4013481b2a994181,
         9618, 3200},
        {"xbar-token", "16/2x8x4 XBAR/2", 1,
         xbarModel(XbarArbitration::RandomToken), 0x3fe12dad8cbfae8e,
         0x3ffae9b8baff6def, 0x3fbfd9344e6527d3, 0x4017cbcdffc69d8f,
         9619, 3200},
        {"xbar-gate", "12/2x6x3 XBAR/2", 1,
         xbarModel(XbarArbitration::GateLevel), 0x3fe6a54f818424ea,
         0x3ffab08575dceb3b, 0x3fc2548deb16c589, 0x401d732570ea92b5,
         9619, 3200},
        {"omega-most", "16/2x8x8 OMEGA/2", 1,
         omegaModel(S::Distributed, P::MostResources), 0x3fddce1c96bba07f,
         0x4001b9e442068fa2, 0x3fbbd5d9c8a714df, 0x40165e495cb57a1d,
         9627, 3200},
        {"omega-upper", "16/2x8x8 OMEGA/2", 1,
         omegaModel(S::Distributed, P::PreferUpper), 0x3fde8bd351dcf83f,
         0x400227b1e0297f78, 0x3fbb981548ac858f, 0x401686cd739a6d4f,
         9627, 3200},
        {"omega-random-tie", "16/2x8x8 OMEGA/2", 1,
         omegaModel(S::Distributed, P::RandomTie), 0x3fde04981a897e95,
         0x4001dc73c46971b6, 0x3fbb6ff9f76f4395, 0x4016b5f50d0360ff,
         9627, 3200},
        {"omega-address-first", "8/1x8x8 OMEGA/2", 1,
         omegaModel(S::AddressFirstFree), 0x4010b4c7a06c8ed2,
         0x4023b00941eb1291, 0x3ffc99c72c40684d, 0x4041c2b6fbe53456,
         9636, 3200},
        {"cube-most", "16/2x8x8 CUBE/2", 1,
         omegaModel(S::Distributed, P::MostResources), 0x3fdd6efd2ba78e54,
         0x400188461ecf2b40, 0x3fba530f219576c1, 0x40165e495cb57a1d,
         9627, 3200},
        {"cube-upper", "16/2x8x8 CUBE/2", 1,
         omegaModel(S::Distributed, P::PreferUpper), 0x3fde309db47b8bd1,
         0x4001f981fa3a719e, 0x3fba6642d79fe683, 0x40165e495cb57a1d,
         9627, 3200},
        {"cube-random-tie", "16/2x8x8 CUBE/2", 1,
         omegaModel(S::Distributed, P::RandomTie), 0x3fddc6ae231eda82,
         0x4001b604a991e8cc, 0x3fba92a7d773de2b, 0x40165e495cb57a1d,
         9627, 3200},
        {"cube-address-first", "8/1x8x8 CUBE/2", 1,
         omegaModel(S::AddressFirstFree), 0x40151bb1a741c576,
         0x4028ab6791914e72, 0x4002629f2a963f3b, 0x404a7d1caf266875,
         9620, 3200},
        {"omega-wide", "64/2x32x32 OMEGA/1", 1, omegaModel(S::Distributed),
         0x3fd25d81a7738da1, 0x400db04f806aa1fc, 0x3fbbe31492cd7033,
         0x4010689b7e8001fe, 9658, 3200},
        {"omega-typed4", "16/2x8x8 OMEGA/2", 4, omegaModel(S::Distributed),
         0x3fee34f8de3d9318, 0x40114443d913bf73, 0x3fd4549812b943d5,
         0x40219217b6f4d033, 9626, 3200},
        {"omega-return", "16/2x8x8 OMEGA/2", 1, with_return,
         0x3fddf180b6a5e089, 0x4001bec6b03d4837, 0x3fbdf499dd41b40d,
         0x40165e495cb57a1d, 12871, 3200},
        {"omega-address-random", "8/1x8x8 OMEGA/2", 1,
         omegaModel(S::AddressRandomFree), 0x3fe5ba1f7059d73f,
         0x3ff9a4deb0de3326, 0x3fca4153442309a7, 0x40184fb19c7df8a3,
         9614, 3200},
        {"omega-clocked", "8/1x8x8 OMEGA/2", 1,
         omegaModel(S::DistributedClocked), 0x3fde51ced3055204,
         0x3ff1dcf944b86782, 0x3fca0b0aff04bb55, 0x4015a010e8b6b838,
         9613, 3200},
    };
    for (const GoldenCell &cell : cells) {
        const auto cfg = SystemConfig::parse(cell.config);
        auto params = makeParams(0.0, 1.0, 0.5);
        params.resourceTypes = cell.resourceTypes;
        params.lambda = lambdaForRho(cfg, 0.6, params.muN, params.muS);
        SimOptions opts;
        opts.seed = 7;
        opts.warmupTasks = 200;
        opts.measureTasks = 3000;
        const SimResult res = simulate(cfg, params, opts, cell.model);
        ASSERT_TRUE(res.ok()) << cell.label;
        EXPECT_EQ(doubleBits(res.meanDelay), cell.meanDelay) << cell.label;
        EXPECT_EQ(doubleBits(res.timeAvgQueue), cell.timeAvgQueue)
            << cell.label;
        EXPECT_EQ(doubleBits(res.delayHalfWidth), cell.delayHalfWidth)
            << cell.label;
        EXPECT_EQ(doubleBits(res.delayP99), cell.delayP99) << cell.label;
        EXPECT_EQ(res.kernel.fired, cell.fired) << cell.label;
        EXPECT_EQ(res.completedTasks, cell.completed) << cell.label;
    }
}

TEST(OmegaSystemTest, AddressRandomDelayIndependentOfNetworkCount)
{
    // Networks are independent, so at equal per-processor load a second
    // copy of 8x8x8 OMEGA/2 must not change a network's delay.  A
    // dispatcher that retries a blocked task at every event of every
    // network hands address-random tasks extra random draws, and the
    // delay then falls as networks are added.
    const auto one = SystemConfig::parse("8/1x8x8 OMEGA/2");
    const auto two = SystemConfig::parse("16/2x8x8 OMEGA/2");
    auto params = makeParams(0.0, 1.0, 1.0);
    params.lambda = lambdaForRho(one, 0.7, params.muN, params.muS);
    ASSERT_EQ(params.lambda, lambdaForRho(two, 0.7, params.muN, params.muS));
    ModelOptions random_free;
    random_free.omega.scheduling = OmegaScheduling::AddressRandomFree;
    // That effect is ~15% of the delay; 300k tasks bring each CI
    // to about +-2% so the comparison can see it.
    SimOptions opts = quickOptions(131);
    opts.warmupTasks = 20000;
    opts.measureTasks = 300000;
    const auto a = simulate(one, params, opts, random_free);
    opts.seed = 132;
    const auto b = simulate(two, params, opts, random_free);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_NEAR(b.meanDelay, a.meanDelay,
                a.delayHalfWidth + b.delayHalfWidth);
}

TEST(SystemContractTest, CorruptedCountersTripConservationInvariant)
{
    // Contract builds check issued == completed + queued + in-flight
    // at every sample point.  Skew the queued counter before running
    // and prove the contract fires on the first sample.
#if RSIN_CONTRACTS_ENABLED
    ScopedPanicThrows guard;
    const auto cfg = SystemConfig::parse("4/1x1x1 SBUS/2");
    const auto params = makeParams(0.08, 1.0, 0.5);
    SbusSystem system(cfg, params, quickOptions());
    system.debugCorruptConservationForTest();
    EXPECT_THROW(system.run(), PanicError);
#else
    GTEST_SKIP() << "contract checks compiled out "
                    "(reconfigure with -DRSIN_CONTRACTS=ON)";
#endif
}

TEST(SystemContractTest, CleanRunsFireNoInvariant)
{
    // All three system classes complete a measured run with the
    // conservation contract checked at every arrival, transmission
    // start and completion.
    for (const char *spec :
         {"4/1x1x1 SBUS/2", "4/1x4x4 XBAR/1", "8/1x8x8 OMEGA/2"}) {
        const auto cfg = SystemConfig::parse(spec);
        const auto params = makeParams(0.08, 1.0, 0.5);
        const auto res = simulate(cfg, params, quickOptions(3));
        EXPECT_TRUE(res.ok()) << spec;
    }
}

} // namespace
} // namespace rsin
