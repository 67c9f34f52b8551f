/**
 * @file
 * Tests for partitioned execution: partition planning, and the rsin
 * merge driver's bit-exactness against the serial calendar oracle for
 * every network class and mode, at several shard counts, on the
 * calling thread and on a thread pool.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "exec/thread_pool.hpp"
#include "rsin/analysis.hpp"
#include "rsin/factory.hpp"
#include "rsin/partition.hpp"

namespace rsin {
namespace {

// ---------------------------------------------------------------- //
// rsin: partition planning                                          //
// ---------------------------------------------------------------- //

TEST(PartitionPlanTest, BalancedContiguousBlocks)
{
    const auto cfg = SystemConfig::parse("16/8x1x1 SBUS/2");
    const auto plan = planPartition(cfg, 3);
    ASSERT_EQ(plan.shardCount(), 3u);
    // 8 networks over 3 shards: 3 + 3 + 2, contiguous, in order.
    EXPECT_EQ(plan.shards[0].networks(), 3u);
    EXPECT_EQ(plan.shards[1].networks(), 3u);
    EXPECT_EQ(plan.shards[2].networks(), 2u);
    EXPECT_EQ(plan.shards[0].firstProcessor, 0u);
    EXPECT_EQ(plan.shards[1].firstProcessor, 6u);
    EXPECT_EQ(plan.shards[2].firstProcessor, 12u);
    EXPECT_EQ(plan.shards[2].lastProcessor, 16u);
}

TEST(PartitionPlanTest, ClampsToNetworkCountAndRefusesSingles)
{
    const auto cfg = SystemConfig::parse("8/4x1x1 SBUS/2");
    EXPECT_EQ(planPartition(cfg, 64).shardCount(), 4u);
    EXPECT_EQ(planPartition(cfg, 1).shardCount(), 0u);
    const auto single = SystemConfig::parse("4/1x1x1 SBUS/2");
    EXPECT_EQ(planPartition(single, 8).shardCount(), 0u);
}

// ---------------------------------------------------------------- //
// rsin: bit-exactness against the serial oracle                     //
// ---------------------------------------------------------------- //

workload::WorkloadParams
makeParams(double lambda, double mu_n, double mu_s)
{
    workload::WorkloadParams p;
    p.lambda = lambda;
    p.muN = mu_n;
    p.muS = mu_s;
    return p;
}

std::uint64_t
doubleBits(double v)
{
    std::uint64_t b = 0;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

/** Full bitwise comparison (NaN-safe), excluding the two fields a
 *  partitioned run legitimately changes: shardsUsed and the arena
 *  high-water mark. */
void
expectSameResult(const SimResult &serial, const SimResult &sharded)
{
    EXPECT_EQ(serial.status, sharded.status);
    EXPECT_EQ(serial.saturated, sharded.saturated);
    EXPECT_EQ(doubleBits(serial.meanDelay), doubleBits(sharded.meanDelay));
    EXPECT_EQ(doubleBits(serial.delayHalfWidth),
              doubleBits(sharded.delayHalfWidth));
    EXPECT_EQ(doubleBits(serial.normalizedDelay),
              doubleBits(sharded.normalizedDelay));
    EXPECT_EQ(doubleBits(serial.meanResponse),
              doubleBits(sharded.meanResponse));
    EXPECT_EQ(doubleBits(serial.meanRoutingAttempts),
              doubleBits(sharded.meanRoutingAttempts));
    EXPECT_EQ(doubleBits(serial.meanBoxesTraversed),
              doubleBits(sharded.meanBoxesTraversed));
    EXPECT_EQ(doubleBits(serial.delayImbalance),
              doubleBits(sharded.delayImbalance));
    EXPECT_EQ(doubleBits(serial.timeAvgQueue),
              doubleBits(sharded.timeAvgQueue));
    EXPECT_EQ(doubleBits(serial.delayP95), doubleBits(sharded.delayP95));
    EXPECT_EQ(doubleBits(serial.delayP99), doubleBits(sharded.delayP99));
    EXPECT_EQ(doubleBits(serial.fractionNoWait),
              doubleBits(sharded.fractionNoWait));
    EXPECT_EQ(serial.completedTasks, sharded.completedTasks);
    EXPECT_EQ(serial.countedTasks, sharded.countedTasks);
    EXPECT_EQ(serial.rejections, sharded.rejections);
    EXPECT_EQ(doubleBits(serial.simulatedTime),
              doubleBits(sharded.simulatedTime));
    EXPECT_EQ(serial.kernel.scheduled, sharded.kernel.scheduled);
    EXPECT_EQ(serial.kernel.fired, sharded.kernel.fired);
    EXPECT_EQ(serial.kernel.cancelled, sharded.kernel.cancelled);
}

SimOptions
smallOptions(std::uint64_t seed = 7)
{
    SimOptions o;
    o.seed = seed;
    o.warmupTasks = 200;
    o.measureTasks = 3000;
    return o;
}

TEST(PartitionedRunTest, SbusBitIdenticalAcrossShardCounts)
{
    const auto cfg = SystemConfig::parse("16/8x1x1 SBUS/2");
    const auto params = makeParams(0.12, 1.0, 0.4);
    const SimOptions opts = smallOptions();
    const SimResult serial = simulate(cfg, params, opts);
    ASSERT_EQ(serial.status, RunStatus::Ok);
    ASSERT_EQ(serial.shardsUsed, 1u);
    exec::ThreadPool pool(4);
    common::Executor *const executors[] = {nullptr, &pool};
    for (std::size_t shards : {2u, 4u, 7u}) {
        SCOPED_TRACE(shards);
        SimOptions sharded = opts;
        sharded.shards = shards;
        for (common::Executor *executor : executors) {
            const SimResult result =
                simulate(cfg, params, sharded, {}, executor);
            EXPECT_EQ(result.shardsUsed, shards);
            expectSameResult(serial, result);
        }
    }
}

TEST(PartitionedRunTest, ExecutorDoesNotChangeTheResult)
{
    const auto cfg = SystemConfig::parse("12/4x1x1 SBUS/3");
    const auto params = makeParams(0.15, 1.0, 0.5);
    SimOptions opts = smallOptions(11);
    opts.shards = 4;
    const SimResult onThread = simulate(cfg, params, opts);
    exec::ThreadPool pool(4);
    const SimResult pooled = simulate(cfg, params, opts, {}, &pool);
    expectSameResult(onThread, pooled);
    const SimResult serial = simulate(cfg, params, smallOptions(11));
    expectSameResult(serial, pooled);
}

TEST(PartitionedRunTest, SaturationCutBitIdentical)
{
    // Far beyond capacity with a small queue limit: the run must stop
    // at exactly the serial crossing event, in time and in counters.
    const auto cfg = SystemConfig::parse("16/4x1x1 SBUS/1");
    const auto params = makeParams(4.0, 1.0, 1.0);
    SimOptions opts = smallOptions(3);
    opts.saturationQueueLimit = 500;
    const SimResult serial = simulate(cfg, params, opts);
    ASSERT_EQ(serial.status, RunStatus::Saturated);
    for (std::size_t shards : {2u, 4u}) {
        SimOptions sharded = opts;
        sharded.shards = shards;
        expectSameResult(serial, simulate(cfg, params, sharded));
    }
}

TEST(PartitionedRunTest, MaxEventsCutBitIdentical)
{
    const auto cfg = SystemConfig::parse("16/8x1x1 SBUS/2");
    const auto params = makeParams(0.12, 1.0, 0.4);
    SimOptions opts = smallOptions(5);
    opts.maxEvents = 700; // stops long before the quota
    const SimResult serial = simulate(cfg, params, opts);
    ASSERT_EQ(serial.kernel.fired, 700u);
    for (std::size_t shards : {2u, 4u, 7u}) {
        SimOptions sharded = opts;
        sharded.shards = shards;
        expectSameResult(serial, simulate(cfg, params, sharded));
    }
}

TEST(PartitionedRunTest, ZeroLoadBitIdentical)
{
    const auto cfg = SystemConfig::parse("8/4x1x1 SBUS/2");
    const auto params = makeParams(0.0, 1.0, 1.0);
    const SimResult serial = simulate(cfg, params, smallOptions());
    ASSERT_EQ(serial.status, RunStatus::NoData);
    SimOptions sharded = smallOptions();
    sharded.shards = 4;
    expectSameResult(serial, simulate(cfg, params, sharded));
}

TEST(PartitionedRunTest, KernelCountersAggregateExactly)
{
    // The per-shard counter journals must reconstruct the serial
    // kernel totals at the cut: scheduled, fired and cancelled each
    // sum over shards to the serial value.
    const auto cfg = SystemConfig::parse("12/6x1x1 SBUS/2");
    const auto params = makeParams(0.1, 1.0, 0.5);
    const SimOptions opts = smallOptions(13);
    const SimResult serial = simulate(cfg, params, opts);
    SimOptions sharded = opts;
    sharded.shards = 3;
    const SimResult result = simulate(cfg, params, sharded);
    EXPECT_EQ(result.kernel.scheduled, serial.kernel.scheduled);
    EXPECT_EQ(result.kernel.fired, serial.kernel.fired);
    EXPECT_EQ(result.kernel.cancelled, serial.kernel.cancelled);
    EXPECT_GT(result.kernel.fired, 0u);
}

TEST(PartitionedRunTest, UnsplittableConfigFallsBackToSerial)
{
    const auto cfg = SystemConfig::parse("4/1x1x1 SBUS/2");
    const auto params = makeParams(0.1, 1.0, 0.5);
    SimOptions opts = smallOptions();
    opts.shards = 8;
    const SimResult result = simulate(cfg, params, opts);
    EXPECT_EQ(result.shardsUsed, 1u);
    expectSameResult(simulate(cfg, params, smallOptions()), result);
}

/** A switched-network model under test, with a label for failures. */
struct SwitchedCase
{
    const char *label;
    const char *config;
    ModelOptions model;
};

ModelOptions
xbarModel(XbarArbitration arbitration)
{
    ModelOptions m;
    m.xbarArbitration = arbitration;
    return m;
}

ModelOptions
omegaModel(OmegaScheduling scheduling, sched::RoutingPolicy policy)
{
    ModelOptions m;
    m.omega.scheduling = scheduling;
    m.omega.policy = policy;
    return m;
}

ModelOptions
omegaReturnModel(double muReturn)
{
    ModelOptions m;
    m.omega.modelReturnNetwork = true;
    m.omega.muReturn = muReturn;
    return m;
}

TEST(PartitionedRunTest, SwitchedNetworksBitIdenticalAcrossShardCounts)
{
    // Every network's event sequence is its own and every number it
    // draws comes from its own streams, so sharding by network
    // reproduces the serial run exactly -- rejections included,
    // because a blocked task retries only when its own network changes
    // status.  Each row runs on the calling thread and on a pool.
    using S = OmegaScheduling;
    using P = sched::RoutingPolicy;
    const std::vector<SwitchedCase> cases = {
        {"xbar-index", "32/8x4x2 XBAR/1",
         xbarModel(XbarArbitration::IndexPriority)},
        {"xbar-fifo", "32/8x4x2 XBAR/1",
         xbarModel(XbarArbitration::FifoArrival)},
        {"xbar-token", "32/8x4x2 XBAR/1",
         xbarModel(XbarArbitration::RandomToken)},
        {"xbar-gate", "32/8x4x2 XBAR/1",
         xbarModel(XbarArbitration::GateLevel)},
        {"omega-most", "32/8x4x4 OMEGA/1",
         omegaModel(S::Distributed, P::MostResources)},
        {"omega-upper", "32/8x4x4 OMEGA/1",
         omegaModel(S::Distributed, P::PreferUpper)},
        {"omega-random-tie", "32/8x4x4 OMEGA/1",
         omegaModel(S::Distributed, P::RandomTie)},
        {"omega-address-first", "32/8x4x4 OMEGA/1",
         omegaModel(S::AddressFirstFree, P::MostResources)},
        {"omega-address-random", "32/8x4x4 OMEGA/1",
         omegaModel(S::AddressRandomFree, P::MostResources)},
        {"omega-clocked", "32/8x4x4 OMEGA/1",
         omegaModel(S::DistributedClocked, P::RandomTie)},
        {"omega-return", "32/8x4x4 OMEGA/1", omegaReturnModel(0.0)},
        {"cube-most", "32/8x4x4 CUBE/1",
         omegaModel(S::Distributed, P::MostResources)},
        {"cube-upper", "32/8x4x4 CUBE/1",
         omegaModel(S::Distributed, P::PreferUpper)},
        {"cube-random-tie", "32/8x4x4 CUBE/1",
         omegaModel(S::Distributed, P::RandomTie)},
        {"cube-address-first", "32/8x4x4 CUBE/1",
         omegaModel(S::AddressFirstFree, P::MostResources)},
    };
    exec::ThreadPool pool(4);
    common::Executor *const executors[] = {nullptr, &pool};
    for (const SwitchedCase &c : cases) {
        SCOPED_TRACE(c.label);
        const auto cfg = SystemConfig::parse(c.config);
        const auto params =
            makeParams(lambdaForRho(cfg, 0.6, 1.0, 0.5), 1.0, 0.5);
        const SimOptions opts = smallOptions(31);
        const SimResult serial = simulate(cfg, params, opts, c.model);
        ASSERT_EQ(serial.status, RunStatus::Ok);
        if (cfg.network != NetworkClass::Crossbar) {
            EXPECT_GT(serial.rejections, 0u);
        }
        for (std::size_t shards : {1u, 2u, 4u, 7u}) {
            SCOPED_TRACE(shards);
            SimOptions sharded = opts;
            sharded.shards = shards;
            for (common::Executor *executor : executors) {
                const SimResult result =
                    simulate(cfg, params, sharded, c.model, executor);
                EXPECT_EQ(result.shardsUsed, shards);
                expectSameResult(serial, result);
            }
        }
    }
}

TEST(PartitionedRunTest, ReturnPathSaturationBitIdentical)
{
    // A slow return network saturates through noteSaturated(), not
    // through the processor queues: the shard that detects it parks,
    // and the run must stop at exactly the serial detection event.
    const auto cfg = SystemConfig::parse("32/8x4x4 OMEGA/1");
    const auto params =
        makeParams(lambdaForRho(cfg, 0.6, 1.0, 0.5), 1.0, 0.5);
    SimOptions opts = smallOptions(37);
    opts.saturationQueueLimit = 40;
    const ModelOptions model = omegaReturnModel(0.05);
    const SimResult serial = simulate(cfg, params, opts, model);
    ASSERT_EQ(serial.status, RunStatus::Saturated);
    exec::ThreadPool pool(4);
    for (std::size_t shards : {2u, 4u, 7u}) {
        SCOPED_TRACE(shards);
        SimOptions sharded = opts;
        sharded.shards = shards;
        expectSameResult(serial, simulate(cfg, params, sharded, model));
        expectSameResult(serial,
                         simulate(cfg, params, sharded, model, &pool));
    }
}

} // namespace
} // namespace rsin
