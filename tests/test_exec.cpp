/**
 * @file
 * Unit tests for the execution subsystem: the fixed-size ThreadPool
 * and the deterministic SweepRunner fan-out.  The determinism tests
 * are the load-bearing ones -- every figure bench relies on a parallel
 * sweep being bit-identical to the serial loop.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "exec/sweep_runner.hpp"
#include "exec/thread_pool.hpp"

namespace rsin {
namespace exec {
namespace {

TEST(ThreadPoolTest, RunsAllSubmittedTasksOnWorkers)
{
    // One index per pool worker plus one for the calling thread, and
    // no body finishes until all of them have started: each thread
    // that drains the range then holds exactly one index, so the
    // bodies ran on every worker as well as on the caller.
    constexpr std::size_t kThreads = 4;
    constexpr std::size_t kIndices = kThreads + 1;
    ThreadPool pool(kThreads);
    EXPECT_EQ(pool.size(), kThreads);

    std::mutex mutex;
    std::condition_variable allStarted;
    std::set<std::thread::id> ids;
    std::size_t started = 0;
    bool timedOut = false;
    pool.parallelFor(kIndices, [&](std::size_t) {
        std::unique_lock<std::mutex> lock(mutex);
        ids.insert(std::this_thread::get_id());
        ++started;
        allStarted.notify_all();
        if (!allStarted.wait_for(lock, std::chrono::seconds(10),
                                 [&] { return started == kIndices; }))
            timedOut = true;
    });
    EXPECT_FALSE(timedOut);
    EXPECT_EQ(started, kIndices);
    EXPECT_EQ(ids.size(), kIndices);
    EXPECT_EQ(ids.count(std::this_thread::get_id()), 1u);
}

TEST(ThreadPoolTest, ZeroThreadsAreRejected)
{
    // Every command-line tool resolves "--jobs 0" before it builds a
    // pool (ArgParser::getJobs), so a zero count here is a caller bug.
    EXPECT_THROW(ThreadPool pool(0), FatalError);
}

TEST(ThreadPoolTest, ParallelForCoversEachIndexExactlyOnce)
{
    ThreadPool pool(3);
    constexpr std::size_t kN = 1000;
    std::vector<std::atomic<int>> visits(kN);
    pool.parallelFor(kN, [&](std::size_t i) {
        visits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kN; ++i)
        EXPECT_EQ(visits[i].load(), 1) << "index " << i;
}

TEST(ThreadPoolTest, ParallelForHandlesEmptyAndSingleRanges)
{
    ThreadPool pool(2);
    std::atomic<std::size_t> count{0};
    pool.parallelFor(0, [&](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 0u);
    pool.parallelFor(1, [&](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 1u);
}

TEST(ThreadPoolTest, ParallelForPropagatesExceptionAndStaysUsable)
{
    ThreadPool pool(2);
    std::atomic<std::size_t> ran{0};
    EXPECT_THROW(pool.parallelFor(100,
                                  [&](std::size_t i) {
                                      if (i == 37)
                                          throw std::runtime_error("boom");
                                      ran.fetch_add(
                                          1, std::memory_order_relaxed);
                                  }),
                 std::runtime_error);
    // Remaining indices still ran, and the pool is not poisoned.
    EXPECT_EQ(ran.load(), 99u);
    std::atomic<std::size_t> after{0};
    pool.parallelFor(10, [&](std::size_t) { ++after; });
    EXPECT_EQ(after.load(), 10u);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock)
{
    // A worker re-entering parallelFor must drain the inner range
    // itself instead of waiting on the (busy) pool.
    ThreadPool pool(2);
    std::atomic<std::size_t> count{0};
    pool.parallelFor(4, [&](std::size_t) {
        pool.parallelFor(8, [&](std::size_t) {
            count.fetch_add(1, std::memory_order_relaxed);
        });
    });
    EXPECT_EQ(count.load(), 32u);
}

TEST(SweepRunnerTest, CellSeedIsPureAndCollisionFree)
{
    // Same coordinates, same seed -- and across a realistic grid every
    // cell (and a different base seed) gets a distinct stream.
    EXPECT_EQ(cellSeed(42, 1, 2, 3), cellSeed(42, 1, 2, 3));
    std::set<std::uint64_t> seeds;
    for (std::size_t c = 0; c < 2; ++c)
        for (std::size_t p = 0; p < 3; ++p)
            for (std::size_t r = 0; r < 3; ++r)
                seeds.insert(cellSeed(7, c, p, r));
    seeds.insert(cellSeed(8, 0, 0, 0));
    EXPECT_EQ(seeds.size(), 2u * 3u * 3u + 1u);
}

TEST(SweepRunnerTest, CellSeedIsTheSharedMixerOfItsCoordinates)
{
    // cellSeed must stay a thin wrapper over common::mixSeed: the
    // campaign planner seeds its cells with mixSeed directly, and
    // resume bit-identity relies on both sides deriving the exact same
    // stream from the same coordinates.
    for (const std::uint64_t base : {1ull, 42ull, 0xDEADBEEFull})
        for (std::size_t c = 0; c < 3; ++c)
            for (std::size_t p = 0; p < 5; ++p)
                for (std::size_t r = 0; r < 4; ++r)
                    EXPECT_EQ(cellSeed(base, c, p, r),
                              mixSeed(base, c, p, r));
}

TEST(SweepRunnerTest, CellSeedCollisionFreeOverFullSweepGrid)
{
    // Full-scale grid: every cell of a configs x points x replications
    // sweep under several base seeds maps to a distinct stream.  A
    // collision would silently correlate two "independent" runs.
    std::set<std::uint64_t> seeds;
    std::size_t inserted = 0;
    for (const std::uint64_t base : {1ull, 1000ull, 0xDEADBEEFull}) {
        for (std::size_t c = 0; c < 8; ++c)
            for (std::size_t p = 0; p < 64; ++p)
                for (std::size_t r = 0; r < 16; ++r) {
                    seeds.insert(cellSeed(base, c, p, r));
                    ++inserted;
                }
    }
    EXPECT_EQ(seeds.size(), inserted);
}

TEST(SweepRunnerTest, VisitsEveryCellOnceWithRowMajorFlatIndex)
{
    ThreadPool pool(4);
    const SweepRunner runner(&pool);
    constexpr std::size_t kConfigs = 2, kPoints = 3, kReps = 3;
    std::vector<std::atomic<int>> visits(kConfigs * kPoints * kReps);
    runner.run(kConfigs, kPoints, kReps, 5,
               [&](const SweepCell &cell) {
                   EXPECT_EQ(cell.flat,
                             (cell.config * kPoints + cell.point) * kReps +
                                 cell.replication);
                   EXPECT_EQ(cell.seed,
                             cellSeed(5, cell.config, cell.point,
                                      cell.replication));
                   visits[cell.flat].fetch_add(1,
                                               std::memory_order_relaxed);
               });
    for (std::size_t i = 0; i < visits.size(); ++i)
        EXPECT_EQ(visits[i].load(), 1) << "cell " << i;
}

TEST(SweepRunnerTest, ParallelGridBitIdenticalToSerial)
{
    // 2 configs x 3 rho points x 3 replications: the value of every
    // cell must be a pure function of its coordinates, so the pooled
    // run reproduces the serial run bit for bit.
    constexpr std::size_t kConfigs = 2, kPoints = 3, kReps = 3;
    const auto fill = [&](SweepRunner runner, std::vector<double> &out) {
        out.assign(kConfigs * kPoints * kReps, 0.0);
        runner.run(kConfigs, kPoints, kReps, 99,
                   [&](const SweepCell &cell) {
                       Rng rng(cell.seed);
                       double acc = 0.0;
                       for (int i = 0; i < 1000; ++i)
                           acc += rng.uniform01();
                       out[cell.flat] = acc;
                   });
    };
    std::vector<double> serial;
    fill(SweepRunner(nullptr), serial);
    ThreadPool pool(4);
    std::vector<double> parallel;
    fill(SweepRunner(&pool), parallel);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(parallel[i], serial[i]) << "cell " << i;
}

} // namespace
} // namespace exec
} // namespace rsin
