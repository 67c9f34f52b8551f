/**
 * @file
 * Heap traffic of a running simulation.  This executable replaces the
 * global operator new with a counting one, so it is its own test
 * binary: one `16/1x16x16 OMEGA/2` cell of 20k tasks at rho 0.6 must
 * make fewer than 1,000 allocations while it runs, the same bound as
 * its crossbar twin.  Construction is counted too, only to show that
 * the counter sees the program's allocations at all.  A packet-switched
 * run allocates per task and per queued packet, never per dispatch.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "common/contract.hpp"
#include "rsin/analysis.hpp"
#include "rsin/factory.hpp"
#include "rsin/packet_system.hpp"

namespace {

std::atomic<std::size_t> allocations{0};

} // namespace

void *
operator new(std::size_t size)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace rsin {
namespace {

struct CellHeap
{
    std::size_t build = 0; ///< allocations while makeSystem runs
    std::size_t run = 0;   ///< allocations while run() runs
};

CellHeap
countCell(const std::string &config)
{
    const SystemConfig cfg = SystemConfig::parse(config);
    workload::WorkloadParams params;
    params.muN = 1.0;
    params.muS = 0.1;
    params.lambda = lambdaForRho(cfg, 0.6, params.muN, params.muS);
    SimOptions opts;
    opts.seed = 1;
    opts.measureTasks = 20000;
    opts.warmupTasks = 2000;
    CellHeap heap;
    const std::size_t before = allocations.load();
    const auto system = makeSystem(cfg, params, opts);
    const std::size_t built = allocations.load();
    const SimResult result = system->run();
    heap.build = built - before;
    heap.run = allocations.load() - built;
    EXPECT_EQ(result.status, RunStatus::Ok) << config;
    return heap;
}

constexpr std::size_t kRunBudget = 1000;

TEST(AllocationTest, OmegaCellRunsWithinTheBudget)
{
#if RSIN_CONTRACTS_ENABLED
    GTEST_SKIP() << "contract builds check the availability registers "
                    "against a freshly built set after every refresh";
#endif
    const CellHeap heap = countCell("16/1x16x16 OMEGA/2");
    EXPECT_GT(heap.build, 0u) << "the counting operator new is not live";
    EXPECT_LT(heap.run, kRunBudget);
}

TEST(AllocationTest, CrossbarTwinRunsWithinTheBudget)
{
    const CellHeap heap = countCell("16/1x16x16 XBAR/2");
    EXPECT_GT(heap.build, 0u) << "the counting operator new is not live";
    EXPECT_LT(heap.run, kRunBudget);
}

/**
 * A `16/1x16x16 OMEGA/2` packet run at rho 0.5 (four packets per task,
 * 20k tasks) delivers about 88,000 packets and makes about 43,000
 * allocations: one in-flight map node per task and the links' deque
 * blocks.  A free-port list built at every dispatch of every ready
 * processor made 147,000.
 */
TEST(AllocationTest, PacketOmegaDispatchDoesNotAllocate)
{
    const SystemConfig cfg = SystemConfig::parse("16/1x16x16 OMEGA/2");
    workload::WorkloadParams params;
    params.muN = 1.0;
    params.muS = 0.1;
    params.lambda = lambdaForRho(cfg, 0.5, params.muN, params.muS);
    SimOptions opts;
    opts.seed = 1;
    opts.measureTasks = 20000;
    opts.warmupTasks = 2000;
    PacketOmegaSystem system(cfg, params, opts);
    const std::size_t before = allocations.load();
    const SimResult result = system.run();
    const std::size_t made = allocations.load() - before;
    EXPECT_EQ(result.status, RunStatus::Ok);
    EXPECT_LT(made, 60000u);
}

} // namespace
} // namespace rsin
