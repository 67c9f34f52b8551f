/**
 * @file
 * Unit tests for the workload model and metrics collection.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "workload/metrics.hpp"
#include "workload/workload.hpp"

namespace rsin {
namespace workload {
namespace {

TEST(WorkloadParamsTest, Validation)
{
    WorkloadParams p;
    EXPECT_NO_THROW(p.validate());
    p.muN = 0.0;
    EXPECT_THROW(p.validate(), FatalError);
    p = WorkloadParams{};
    p.lambda = -1.0;
    EXPECT_THROW(p.validate(), FatalError);
    p = WorkloadParams{};
    p.resourceTypes = 0;
    EXPECT_THROW(p.validate(), FatalError);
}

TEST(WorkloadParamsTest, RatioIsMuSOverMuN)
{
    WorkloadParams p;
    p.muN = 2.0;
    p.muS = 0.5;
    EXPECT_DOUBLE_EQ(p.ratio(), 0.25);
}

TEST(SampleTimeTest, MeansMatchForAllDistributions)
{
    Rng rng(5);
    const double rate = 0.8;
    for (auto dist : {TimeDistribution::Exponential,
                      TimeDistribution::Deterministic,
                      TimeDistribution::Erlang2,
                      TimeDistribution::Hyper2}) {
        Accumulator acc;
        for (int i = 0; i < 200000; ++i)
            acc.add(sampleTime(rng, dist, rate));
        EXPECT_NEAR(acc.mean(), 1.0 / rate, 0.03)
            << "dist " << static_cast<int>(dist);
    }
}

TEST(SampleTimeTest, CoefficientsOfVariationOrdered)
{
    Rng rng(6);
    auto cv2 = [&](TimeDistribution dist) {
        Accumulator acc;
        for (int i = 0; i < 200000; ++i)
            acc.add(sampleTime(rng, dist, 1.0));
        return acc.variance() / (acc.mean() * acc.mean());
    };
    EXPECT_NEAR(cv2(TimeDistribution::Deterministic), 0.0, 1e-12);
    EXPECT_NEAR(cv2(TimeDistribution::Erlang2), 0.5, 0.03);
    EXPECT_NEAR(cv2(TimeDistribution::Exponential), 1.0, 0.05);
    EXPECT_NEAR(cv2(TimeDistribution::Hyper2), 4.0, 0.4);
}

TEST(TaskSourceTest, PoissonInterarrivals)
{
    WorkloadParams p;
    p.lambda = 2.0;
    TaskSource src(0, p, Rng(42));
    Accumulator acc;
    for (int i = 0; i < 100000; ++i)
        acc.add(src.nextInterarrival());
    EXPECT_NEAR(acc.mean(), 0.5, 0.01);
    // Exponential: CV = 1.
    EXPECT_NEAR(acc.stddev() / acc.mean(), 1.0, 0.02);
}

TEST(TaskSourceTest, TaskFieldsPopulated)
{
    WorkloadParams p;
    p.lambda = 1.0;
    TaskSource src(3, p, Rng(43));
    const Task t = src.makeTask(12.5, 77);
    EXPECT_EQ(t.processor, 3u);
    EXPECT_EQ(t.id, 77u);
    EXPECT_DOUBLE_EQ(t.arrival, 12.5);
    EXPECT_GT(t.transmitTime, 0.0);
    EXPECT_GT(t.serviceTime, 0.0);
    EXPECT_EQ(t.resourceType, 0u);
}

TEST(TaskSourceTest, TypedTasksCoverAllTypes)
{
    WorkloadParams p;
    p.lambda = 1.0;
    p.resourceTypes = 4;
    TaskSource src(0, p, Rng(44));
    std::vector<int> counts(4, 0);
    for (int i = 0; i < 4000; ++i) {
        const Task t = src.makeTask(0.0, i);
        ASSERT_LT(t.resourceType, 4u);
        ++counts[t.resourceType];
    }
    for (int c : counts)
        EXPECT_GT(c, 800); // roughly uniform
}

TEST(TaskTest, DelayAndResponse)
{
    Task t;
    t.arrival = 1.0;
    t.transmitStart = 3.0;
    t.transmitEnd = 4.0;
    t.serviceEnd = 9.0;
    EXPECT_DOUBLE_EQ(t.queueingDelay(), 2.0);
    EXPECT_DOUBLE_EQ(t.responseTime(), 8.0);
}

TEST(MetricsTest, WarmupDiscarded)
{
    MetricsCollector mc(/*warmup_tasks=*/10, /*batch_size=*/5);
    for (int i = 0; i < 30; ++i) {
        Task t;
        t.arrival = 0.0;
        t.transmitStart = (i < 10) ? 100.0 : 1.0; // huge during warm-up
        t.transmitEnd = t.transmitStart + 1.0;
        t.serviceEnd = t.transmitEnd + 1.0;
        t.routingAttempts = 1;
        mc.taskCompleted(t);
    }
    EXPECT_EQ(mc.completed(), 30u);
    EXPECT_EQ(mc.counted(), 20u);
    EXPECT_DOUBLE_EQ(mc.meanDelay(), 1.0); // warm-up outliers excluded
}

TEST(MetricsTest, RejectionCounter)
{
    MetricsCollector mc;
    mc.taskRejected();
    mc.taskRejected();
    EXPECT_EQ(mc.rejections(), 2u);
}

TEST(TaskSourceTest, ZeroRateSourceRefusesInterarrivals)
{
    WorkloadParams p;
    p.lambda = 0.0;
    TaskSource src(0, p, Rng(1));
    EXPECT_THROW(src.nextInterarrival(), FatalError);
}

TEST(MetricsTest, QuantilesTrackTheSampleDistribution)
{
    MetricsCollector mc;
    // Delays 0.00, 0.01, ..., 9.99 -- uniform grid.
    for (int i = 0; i < 1000; ++i) {
        Task t;
        t.arrival = 0.0;
        t.transmitStart = static_cast<double>(i) * 0.01;
        t.transmitEnd = t.transmitStart + 1.0;
        t.serviceEnd = t.transmitEnd + 1.0;
        mc.taskCompleted(t);
    }
    EXPECT_NEAR(mc.delayQuantile(0.5), 5.0, 0.1);
    EXPECT_NEAR(mc.delayQuantile(0.95), 9.5, 0.1);
    EXPECT_NEAR(mc.delayQuantile(0.99), 9.9, 0.1);
    EXPECT_LE(mc.delayQuantile(0.0), mc.delayQuantile(1.0));
}

TEST(MetricsTest, ZeroDelayFraction)
{
    MetricsCollector mc;
    for (int i = 0; i < 10; ++i) {
        Task t;
        t.arrival = 1.0;
        t.transmitStart = (i < 3) ? 1.0 : 2.0; // 3 of 10 wait nothing
        t.transmitEnd = t.transmitStart + 1.0;
        t.serviceEnd = t.transmitEnd + 1.0;
        mc.taskCompleted(t);
    }
    EXPECT_DOUBLE_EQ(mc.fractionZeroDelay(), 0.3);
}

TEST(MetricsTest, QuantileReservoirBoundsMemory)
{
    // Push far more observations than the reservoir holds; quantiles
    // stay sane and memory stays bounded (stride doubling).
    MetricsCollector mc;
    Rng rng(9);
    for (int i = 0; i < 300000; ++i) {
        Task t;
        t.arrival = 0.0;
        t.transmitStart = rng.exponential(1.0);
        t.transmitEnd = t.transmitStart + 1.0;
        t.serviceEnd = t.transmitEnd + 1.0;
        mc.taskCompleted(t);
    }
    // Exponential(1): median ~ ln 2, p95 ~ 3.0.
    EXPECT_NEAR(mc.delayQuantile(0.5), 0.693, 0.05);
    EXPECT_NEAR(mc.delayQuantile(0.95), 3.0, 0.2);
}

/** Record a completed task that waited @p delay. */
void
completeWithDelay(MetricsCollector &mc, double delay)
{
    Task t;
    t.arrival = 0.0;
    t.transmitStart = delay;
    t.transmitEnd = delay + 1.0;
    t.serviceEnd = delay + 2.0;
    mc.taskCompleted(t);
}

/** The quantile's definition: interpolate between order statistics
 *  floor(q (n - 1)) and the next one of a sorted copy. */
double
sortedQuantile(std::vector<double> sample, double q)
{
    std::sort(sample.begin(), sample.end());
    const double pos = q * static_cast<double>(sample.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, sample.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return sample[lo] * (1.0 - frac) + sample[hi] * frac;
}

std::uint64_t
bitsOf(double x)
{
    std::uint64_t bits;
    std::memcpy(&bits, &x, sizeof(bits));
    return bits;
}

TEST(MetricsTest, SelectedQuantilesMatchTheSortedDefinition)
{
    // delayQuantile selects its two order statistics instead of sorting
    // the reservoir; it must still return the sorted-copy definition
    // bit for bit.  Below 65536 samples the reservoir holds every delay
    // fed to it.
    Rng rng(41);
    std::vector<std::pair<std::string, std::vector<double>>> cases;
    std::vector<double> random(5000);
    for (double &d : random)
        d = rng.exponential(1.0);
    cases.emplace_back("random", random);
    cases.emplace_back("all-equal", std::vector<double>(1000, 2.5));
    std::vector<double> duplicates(4000, 0.0);
    for (std::size_t i = 0; i < duplicates.size(); i += 10)
        duplicates[i] = static_cast<double>(1 + i % 3) * 0.75;
    cases.emplace_back("mostly-zero", duplicates);
    cases.emplace_back("one", std::vector<double>{3.25});
    cases.emplace_back("two", std::vector<double>{4.0, 1.5});

    // Past 65536 samples the reservoir keeps one of every two.  Feeding
    // each delay twice in a row makes its contents known whichever of a
    // pair it keeps: one copy of every pair, 37768 values here.
    std::vector<double> pairs(37768);
    for (double &d : pairs)
        d = rng.exponential(1.0);
    MetricsCollector doubled;
    for (const double d : pairs) {
        completeWithDelay(doubled, d);
        completeWithDelay(doubled, d);
    }

    for (const double q : {0.0, 0.5, 0.95, 0.99, 1.0}) {
        for (const auto &[label, sample] : cases) {
            MetricsCollector mc;
            for (const double d : sample)
                completeWithDelay(mc, d);
            EXPECT_EQ(bitsOf(mc.delayQuantile(q)),
                      bitsOf(sortedQuantile(sample, q)))
                << label << " q " << q;
        }
        EXPECT_EQ(bitsOf(doubled.delayQuantile(q)),
                  bitsOf(sortedQuantile(pairs, q)))
            << "after a stride doubling, q " << q;
    }
}

TEST(MetricsTest, QuantileOutsideTheUnitIntervalIsRejected)
{
    // q = 1.5 would read past the reservoir and q < 0 would cast a
    // negative position to an index.
    MetricsCollector mc;
    for (int i = 0; i < 10; ++i)
        completeWithDelay(mc, static_cast<double>(i));
    EXPECT_THROW(mc.delayQuantile(1.5), FatalError);
    EXPECT_THROW(mc.delayQuantile(-0.25), FatalError);
    EXPECT_THROW(mc.delayQuantile(std::nan("")), FatalError);
    EXPECT_THROW(MetricsCollector().delayQuantile(2.0), FatalError);
    EXPECT_TRUE(std::isnan(MetricsCollector().delayQuantile(0.5)));
}

TEST(MetricsTest, PerProcessorFairness)
{
    MetricsCollector mc;
    auto complete = [&](std::size_t proc, double delay) {
        Task t;
        t.processor = proc;
        t.arrival = 0.0;
        t.transmitStart = delay;
        t.transmitEnd = delay + 1.0;
        t.serviceEnd = delay + 2.0;
        t.routingAttempts = 1;
        mc.taskCompleted(t);
    };
    // Processor 0 always waits 1, processor 2 always waits 3.
    for (int i = 0; i < 10; ++i) {
        complete(0, 1.0);
        complete(2, 3.0);
    }
    EXPECT_EQ(mc.activeProcessors(), 2u);
    EXPECT_DOUBLE_EQ(mc.meanDelayOf(0), 1.0);
    EXPECT_DOUBLE_EQ(mc.meanDelayOf(2), 3.0);
    EXPECT_DOUBLE_EQ(mc.meanDelayOf(1), 0.0); // never completed
    // Imbalance = (3 - 1) / 2 = 1.
    EXPECT_DOUBLE_EQ(mc.delayImbalance(), 1.0);
}

TEST(MetricsTest, UniformDelaysHaveNoImbalance)
{
    MetricsCollector mc;
    for (std::size_t proc = 0; proc < 4; ++proc) {
        Task t;
        t.processor = proc;
        t.arrival = 0.0;
        t.transmitStart = 2.0;
        t.transmitEnd = 3.0;
        t.serviceEnd = 4.0;
        mc.taskCompleted(t);
    }
    EXPECT_DOUBLE_EQ(mc.delayImbalance(), 0.0);
}

} // namespace
} // namespace workload
} // namespace rsin
