/**
 * @file
 * Tests for the partitioned-execution stack: the SPSC channel and
 * clock-broadcast primitives, the conservative PartitionedSimulator
 * engine, and the rsin merge driver's bit-exactness against the serial
 * calendar oracle.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/error.hpp"
#include "common/spsc_channel.hpp"
#include "des/partitioned.hpp"
#include "exec/thread_pool.hpp"
#include "rsin/analysis.hpp"
#include "rsin/factory.hpp"
#include "rsin/partition.hpp"

namespace rsin {
namespace {

// ---------------------------------------------------------------- //
// common: SPSC channel and clock broadcast                         //
// ---------------------------------------------------------------- //

TEST(SpscChannelTest, FifoOrderAndCapacity)
{
    common::SpscChannel<int> ch(4);
    EXPECT_GE(ch.capacity(), 4u);
    EXPECT_TRUE(ch.empty());
    std::size_t pushed = 0;
    while (ch.tryPush(static_cast<int>(pushed)))
        ++pushed;
    EXPECT_EQ(pushed, ch.capacity());
    int value = -1;
    for (std::size_t i = 0; i < pushed; ++i) {
        ASSERT_TRUE(ch.tryPop(value));
        EXPECT_EQ(value, static_cast<int>(i));
    }
    EXPECT_FALSE(ch.tryPop(value));
    EXPECT_TRUE(ch.empty());
}

TEST(SpscChannelTest, ReusableAfterDrain)
{
    common::SpscChannel<int> ch(2);
    int out = 0;
    for (int round = 0; round < 100; ++round) {
        ASSERT_TRUE(ch.tryPush(round));
        ASSERT_TRUE(ch.tryPop(out));
        EXPECT_EQ(out, round);
    }
}

TEST(ClockBroadcastTest, PublishIsMonotone)
{
    common::ClockBroadcast clock;
    EXPECT_EQ(clock.read(), 0.0);
    clock.publish(3.5);
    EXPECT_EQ(clock.read(), 3.5);
    clock.publish(2.0); // stale publication must not move time backward
    EXPECT_EQ(clock.read(), 3.5);
    clock.publish(7.25);
    EXPECT_EQ(clock.read(), 7.25);
}

TEST(PartitionedDesTest, TimeBitsOrderPreserving)
{
    const double times[] = {0.0, 1e-12, 0.5, 1.0, 3.25, 1e9};
    for (std::size_t i = 1; i < std::size(times); ++i) {
        EXPECT_LT(des::timeToBits(times[i - 1]), des::timeToBits(times[i]));
        EXPECT_EQ(des::bitsToTime(des::timeToBits(times[i])), times[i]);
    }
}

// ---------------------------------------------------------------- //
// des: conservative engine                                          //
// ---------------------------------------------------------------- //

/** Two-shard pipeline: shard 0 emits a cross-shard event per local
 *  event; returns shard 1's delivery times in execution order. */
std::vector<double>
runPipeline(common::Executor *executor, std::size_t ringCapacity,
            int events, double lookahead)
{
    des::Simulator producer;
    des::Simulator consumer;
    des::PartitionedSimulator psim(2);
    psim.attach(0, producer);
    psim.attach(1, consumer);
    psim.connect(0, 1, lookahead, ringCapacity);

    std::vector<double> delivered;
    for (int i = 0; i < events; ++i) {
        const double at = 1.0 + static_cast<double>(i);
        producer.scheduleAt(at, [&psim, &producer, &consumer, &delivered,
                                 lookahead] {
            psim.send(0, 1, producer.now() + lookahead,
                      [&consumer, &delivered] {
                          // Runs on shard 1: record its own clock.
                          delivered.push_back(consumer.now());
                      });
        });
    }
    psim.beginWindow();
    psim.advanceWindow(1000.0, executor);
    EXPECT_TRUE(psim.drained());
    return delivered;
}

TEST(PartitionedDesTest, CrossShardDeliveryInTimestampOrder)
{
    const auto delivered = runPipeline(nullptr, 256, 20, 0.25);
    ASSERT_EQ(delivered.size(), 20u);
    for (std::size_t i = 0; i < delivered.size(); ++i)
        EXPECT_EQ(delivered[i], 1.25 + static_cast<double>(i));
}

TEST(PartitionedDesTest, RingOverflowSpillsLosslessly)
{
    // A ring of 2 slots against 64 sends per window exercises the
    // mutex-guarded overflow path; nothing may be lost or reordered.
    const auto delivered = runPipeline(nullptr, 2, 64, 0.5);
    ASSERT_EQ(delivered.size(), 64u);
    for (std::size_t i = 0; i < delivered.size(); ++i)
        EXPECT_EQ(delivered[i], 1.5 + static_cast<double>(i));
}

TEST(PartitionedDesTest, ThreadPoolMatchesSerialExecution)
{
    const auto serial = runPipeline(nullptr, 8, 40, 0.125);
    exec::ThreadPool pool(2);
    const auto pooled = runPipeline(&pool, 8, 40, 0.125);
    EXPECT_EQ(serial, pooled);
}

TEST(PartitionedDesTest, NullMessagesUnblockIdleSender)
{
    // The consumer has local work far past the producer's only event;
    // progress beyond it requires the producer's clock broadcasts (the
    // null-message role), since the producer sends nothing at all.
    des::Simulator producer;
    des::Simulator consumer;
    des::PartitionedSimulator psim(2);
    psim.attach(0, producer);
    psim.attach(1, consumer);
    psim.connect(0, 1, 0.5);
    int fired = 0;
    for (int i = 0; i < 10; ++i)
        consumer.scheduleAt(static_cast<double>(i) + 1.0,
                            [&fired] { ++fired; });
    psim.beginWindow();
    psim.advanceWindow(50.0, nullptr);
    EXPECT_EQ(fired, 10);
    EXPECT_TRUE(psim.drained());
}

TEST(PartitionedDesTest, EventHookParksShard)
{
    des::Simulator sim0;
    des::Simulator sim1;
    des::PartitionedSimulator psim(2);
    psim.attach(0, sim0);
    psim.attach(1, sim1);
    int fired0 = 0;
    int fired1 = 0;
    for (int i = 0; i < 10; ++i) {
        sim0.scheduleAt(static_cast<double>(i) + 1.0,
                        [&fired0] { ++fired0; });
        sim1.scheduleAt(static_cast<double>(i) + 1.0,
                        [&fired1] { ++fired1; });
    }
    // Shard 0 parks after its third event; shard 1 runs to the end.
    psim.setEventHook(0, [&fired0] { return fired0 < 3; });
    psim.beginWindow();
    psim.advanceWindow(100.0, nullptr);
    EXPECT_EQ(fired0, 3);
    EXPECT_EQ(fired1, 10);
    EXPECT_TRUE(psim.parked(0));
    EXPECT_FALSE(psim.parked(1));
    EXPECT_FALSE(psim.drained()); // a parked shard is never drained
}

TEST(PartitionedDesTest, JournalTracksPerEventCounters)
{
    des::Simulator sim0;
    des::PartitionedSimulator psim(1);
    psim.attach(0, sim0);
    sim0.scheduleAt(1.0, [&sim0] { sim0.schedule(0.5, [] {}); });
    psim.beginWindow();
    psim.advanceWindow(10.0, nullptr);
    const auto &journal = psim.journal(0);
    ASSERT_EQ(journal.size(), 2u);
    EXPECT_EQ(des::bitsToTime(journal[0].timeBits), 1.0);
    EXPECT_EQ(journal[0].scheduledAfter, 2u); // the nested schedule
    EXPECT_EQ(des::bitsToTime(journal[1].timeBits), 1.5);
    EXPECT_EQ(psim.windowBase(0).fired, 0u);
    EXPECT_EQ(psim.totals().fired, 2u);
}

TEST(PartitionedDesTest, ZeroLookaheadConnectionRejected)
{
    des::Simulator sim0;
    des::Simulator sim1;
    des::PartitionedSimulator psim(2);
    psim.attach(0, sim0);
    psim.attach(1, sim1);
    EXPECT_THROW(psim.connect(0, 1, 0.0), FatalError);
}

TEST(PartitionedDesTest, LookaheadViolationRejected)
{
    des::Simulator sim0;
    des::Simulator sim1;
    des::PartitionedSimulator psim(2);
    psim.attach(0, sim0);
    psim.attach(1, sim1);
    psim.connect(0, 1, 1.0);
    sim0.scheduleAt(1.0, [&psim, &sim0] {
        // Promises delivery sooner than the declared lookahead.
        psim.send(0, 1, sim0.now() + 0.25, [] {});
    });
    psim.beginWindow();
    EXPECT_THROW(psim.advanceWindow(10.0, nullptr), FatalError);
}

// ---------------------------------------------------------------- //
// rsin: partition planning                                          //
// ---------------------------------------------------------------- //

TEST(PartitionPlanTest, BalancedContiguousBlocks)
{
    const auto cfg = SystemConfig::parse("16/8x1x1 SBUS/2");
    const auto plan = planPartition(cfg, 3);
    ASSERT_EQ(plan.kind, PartitionKind::ByNetwork);
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
    EXPECT_EQ(planPartition(cfg, 1).kind, PartitionKind::None);
    const auto single = SystemConfig::parse("4/1x1x1 SBUS/2");
    EXPECT_EQ(planPartition(single, 8).kind, PartitionKind::None);
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
    for (std::size_t shards : {2u, 4u, 7u}) {
        SimOptions sharded = opts;
        sharded.shards = shards;
        const SimResult result = simulate(cfg, params, sharded);
        EXPECT_EQ(result.shardsUsed, shards);
        expectSameResult(serial, result);
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

TEST(PartitionedRunTest, AutoShardsMatchesSerial)
{
    const auto cfg = SystemConfig::parse("8/4x1x1 SBUS/2");
    const auto params = makeParams(0.1, 1.0, 0.5);
    SimOptions opts = smallOptions(17);
    opts.shards = 0; // auto: one shard per hardware thread
    const SimResult result = simulate(cfg, params, opts);
    EXPECT_GE(result.shardsUsed, 1u);
    expectSameResult(simulate(cfg, params, smallOptions(17)), result);
}

TEST(PartitionedRunTest, ReplicatedShardedMatchesReplicatedSerial)
{
    const auto cfg = SystemConfig::parse("8/4x1x1 SBUS/2");
    const auto params = makeParams(0.12, 1.0, 0.4);
    SimOptions serialOpts = smallOptions(23);
    const SimResult serial =
        simulateReplicated(cfg, params, serialOpts, 3);
    SimOptions shardedOpts = serialOpts;
    shardedOpts.shards = 4;
    exec::ThreadPool pool(4);
    const SimResult sharded =
        simulateReplicated(cfg, params, shardedOpts, 3, {}, &pool);
    expectSameResult(serial, sharded);
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

TEST(PartitionedRunTest, SwitchedNetworksBitIdenticalAcrossShardCounts)
{
    // Modes whose routing draws no master-RNG numbers: every network's
    // event sequence is its own, so sharding by network reproduces the
    // serial run exactly -- rejections included, because a blocked
    // task retries only when its own network changes status.
    using S = OmegaScheduling;
    using P = sched::RoutingPolicy;
    const std::vector<SwitchedCase> cases = {
        {"xbar-index", "32/8x4x2 XBAR/1",
         xbarModel(XbarArbitration::IndexPriority)},
        {"xbar-fifo", "32/8x4x2 XBAR/1",
         xbarModel(XbarArbitration::FifoArrival)},
        {"omega-most", "32/8x4x4 OMEGA/1",
         omegaModel(S::Distributed, P::MostResources)},
        {"omega-upper", "32/8x4x4 OMEGA/1",
         omegaModel(S::Distributed, P::PreferUpper)},
        {"omega-address-first", "32/8x4x4 OMEGA/1",
         omegaModel(S::AddressFirstFree, P::MostResources)},
        {"cube-most", "32/8x4x4 CUBE/1",
         omegaModel(S::Distributed, P::MostResources)},
        {"cube-upper", "32/8x4x4 CUBE/1",
         omegaModel(S::Distributed, P::PreferUpper)},
        {"cube-address-first", "32/8x4x4 CUBE/1",
         omegaModel(S::AddressFirstFree, P::MostResources)},
    };
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
            SimOptions sharded = opts;
            sharded.shards = shards;
            const SimResult result = simulate(cfg, params, sharded, c.model);
            EXPECT_EQ(result.shardsUsed, shards);
            expectSameResult(serial, result);
        }
    }
}

TEST(PartitionedRunTest, SwitchedNetworksDeterministicPerShardCount)
{
    // RandomToken, RandomTie and address-random draw from the per-run
    // master RNG, so sharding changes the stream interleaving: the
    // contract there is determinism for a fixed shard count, not
    // serial bit-equality.
    using S = OmegaScheduling;
    using P = sched::RoutingPolicy;
    const std::vector<SwitchedCase> cases = {
        {"xbar-token", "8/2x4x4 XBAR/2",
         xbarModel(XbarArbitration::RandomToken)},
        {"omega-random-tie", "8/2x4x4 OMEGA/2",
         omegaModel(S::Distributed, P::RandomTie)},
        {"omega-address-random", "8/2x4x4 OMEGA/2",
         omegaModel(S::AddressRandomFree, P::MostResources)},
    };
    const auto params = makeParams(0.2, 1.0, 0.5);
    for (const SwitchedCase &c : cases) {
        SCOPED_TRACE(c.label);
        const auto cfg = SystemConfig::parse(c.config);
        SimOptions opts = smallOptions(29);
        opts.shards = 2;
        const SimResult first = simulate(cfg, params, opts, c.model);
        const SimResult second = simulate(cfg, params, opts, c.model);
        EXPECT_EQ(first.shardsUsed, 2u);
        expectSameResult(first, second);
        EXPECT_EQ(first.kernel.arenaBytes, second.kernel.arenaBytes);
        EXPECT_EQ(first.status, RunStatus::Ok);
    }
}

} // namespace
} // namespace rsin
