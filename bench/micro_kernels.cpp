/**
 * @file
 * google-benchmark microbenchmarks for the library's hot kernels: the
 * event calendar, the distributed router's availability pass, the
 * gate-level fabric settle loop, the Markov solvers, and the per-event
 * cost of the simulation path against system size.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <string>

#include "common/rng.hpp"
#include "des/simulator.hpp"
#include "exec/sweep_runner.hpp"
#include "exec/thread_pool.hpp"
#include "la/kernels.hpp"
#include "la/sparse.hpp"
#include "logic/crossbar_cell.hpp"
#include "markov/omega_model.hpp"
#include "markov/sbus_solvers.hpp"
#include "queueing/mm_queues.hpp"
#include "rsin/analysis.hpp"
#include "rsin/analysis_cache.hpp"
#include "rsin/factory.hpp"
#include "sched/omega_router.hpp"
#include "topology/multistage.hpp"

namespace {

using namespace rsin;

void
BM_EventQueueScheduleFire(benchmark::State &state)
{
    const std::size_t batch = static_cast<std::size_t>(state.range(0));
    Rng rng(1);
    for (auto _ : state) {
        des::Simulator sim;
        for (std::size_t i = 0; i < batch; ++i)
            sim.schedule(rng.uniform01(), [] {});
        sim.runAll();
        benchmark::DoNotOptimize(sim.fired());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * static_cast<std::int64_t>(batch)));
}
BENCHMARK(BM_EventQueueScheduleFire)->Arg(1000)->Arg(10000);

void
BM_SimulatorChurn(benchmark::State &state)
{
    // Steady-state schedule/fire churn on one long-lived simulator:
    // every event schedules a follow-up, and the arena recycles slots
    // instead of allocating.
    const std::size_t horizon = static_cast<std::size_t>(state.range(0));
    Rng rng(3);
    des::Simulator sim;
    std::uint64_t spawned = 0;
    for (auto _ : state) {
        for (std::size_t i = 0; i < horizon; ++i)
            sim.schedule(rng.uniform01(), [&sim, &rng, &spawned] {
                ++spawned;
                sim.schedule(rng.uniform01(), [&spawned] { ++spawned; });
            });
        sim.runAll();
        benchmark::DoNotOptimize(spawned);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * static_cast<std::int64_t>(horizon)));
}
BENCHMARK(BM_SimulatorChurn)->Arg(1000)->Arg(10000);

void
BM_SweepRunner(benchmark::State &state)
{
    // The (config x rho x replication) fan-out used by the figure
    // benches, on a small grid so the bench stays quick.  jobs = 0
    // runs serially; jobs = N exercises the pool.
    const auto jobs = static_cast<std::size_t>(state.range(0));
    std::unique_ptr<exec::ThreadPool> pool;
    if (jobs > 1)
        pool = std::make_unique<exec::ThreadPool>(jobs);
    const exec::SweepRunner runner(pool.get());
    const auto cfg = SystemConfig::parse("16/1x16x16 OMEGA/2");
    for (auto _ : state) {
        std::vector<double> delays(4 * 2);
        runner.run(1, 4, 2, 99,
                   [&](const exec::SweepCell &cell) {
                       workload::WorkloadParams params;
                       params.muN = 1.0;
                       params.muS = 0.1;
                       params.lambda = 0.02 + 0.02 * static_cast<double>(
                                                        cell.point);
                       SimOptions opts;
                       opts.seed = cell.seed;
                       opts.warmupTasks = 100;
                       opts.measureTasks = 1000;
                       delays[cell.flat] =
                           // rsin-lint: allow(R5): timing kernel, value unused
                           simulate(cfg, params, opts).meanDelay;
                   });
        benchmark::DoNotOptimize(delays.data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * 8));
}
BENCHMARK(BM_SweepRunner)->Arg(1)->Arg(4);

void
BM_OmegaAvailabilityPass(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    const topology::MultistageNetwork net(
        topology::MultistageKind::Omega, n);
    topology::CircuitState circuit(net);
    sched::ResourcePool pool(n, 2);
    const sched::OmegaRouter router(net);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            router.availability(circuit, pool, 0));
}
BENCHMARK(BM_OmegaAvailabilityPass)->Arg(16)->Arg(64)->Arg(256);

void
BM_OmegaRouteAndRelease(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    const topology::MultistageNetwork net(
        topology::MultistageKind::Omega, n);
    topology::CircuitState circuit(net);
    sched::ResourcePool pool(n, 2);
    const sched::OmegaRouter router(net);
    Rng rng(2);
    std::size_t src = 0;
    for (auto _ : state) {
        auto route = router.tryRoute(circuit, pool, src, rng);
        if (route) {
            circuit.release(route->path);
            pool.release(route->resource);
        }
        src = (src + 1) % n;
    }
}
BENCHMARK(BM_OmegaRouteAndRelease)->Arg(16)->Arg(64);

void
BM_CrossbarFabricRequestCycle(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    logic::CrossbarFabric fab(n, n);
    const std::vector<bool> req(n, true);
    const std::vector<bool> avail(n, true);
    for (auto _ : state) {
        auto result = fab.requestCycle(req, avail);
        benchmark::DoNotOptimize(result.gateDelays);
        fab.resetCycle(req);
    }
}
BENCHMARK(BM_CrossbarFabricRequestCycle)->Arg(8)->Arg(16);

void
BM_SbusMatrixGeometric(benchmark::State &state)
{
    markov::SbusParams prm;
    prm.p = 16;
    prm.lambda = 0.05;
    prm.muN = 1.0;
    prm.muS = 0.1;
    prm.r = static_cast<std::size_t>(state.range(0));
    const markov::SbusChain chain(prm);
    for (auto _ : state) {
        auto sol = markov::solveMatrixGeometric(chain);
        benchmark::DoNotOptimize(sol.queueingDelay);
    }
}
BENCHMARK(BM_SbusMatrixGeometric)->Arg(4)->Arg(16)->Arg(32);

void
BM_BlockedGemm(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    Rng rng(7);
    std::vector<double> a(n * n), b(n * n), c(n * n);
    for (auto &v : a)
        v = rng.uniform01();
    for (auto &v : b)
        v = rng.uniform01();
    for (auto _ : state) {
        la::kernels::gemm(n, n, n, 1.0, a.data(), n, b.data(), n,
                          c.data(), n, false);
        benchmark::DoNotOptimize(c.data());
        benchmark::ClobberMemory();
    }
    // 2*n^3 flops per product, reported as items.
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_BlockedGemm)->Arg(48)->Arg(96)->Arg(192);

void
BM_SbusSolveCached(benchmark::State &state)
{
    // The AnalysisCache hit path: exact-key lookup plus the solution
    // copy-out.  This is what a deduped sweep cell pays instead of
    // BM_SbusMatrixGeometric at the same size.
    markov::SbusParams prm;
    prm.p = 16;
    prm.lambda = 0.05;
    prm.muN = 1.0;
    prm.muS = 0.1;
    prm.r = static_cast<std::size_t>(state.range(0));
    AnalysisCache cache;
    cache.solve(prm, SbusSolverKind::MatrixGeometric);
    for (auto _ : state) {
        auto sol = cache.solve(prm, SbusSolverKind::MatrixGeometric);
        benchmark::DoNotOptimize(sol.queueingDelay);
    }
}
BENCHMARK(BM_SbusSolveCached)->Arg(16)->Arg(32);

void
BM_SbusStagedSolver(benchmark::State &state)
{
    markov::SbusParams prm;
    prm.p = 16;
    prm.lambda = 0.05;
    prm.muN = 1.0;
    prm.muS = 0.1;
    prm.r = static_cast<std::size_t>(state.range(0));
    const markov::SbusChain chain(prm);
    for (auto _ : state) {
        auto sol = markov::solveStaged(chain);
        benchmark::DoNotOptimize(sol.queueingDelay);
    }
}
BENCHMARK(BM_SbusStagedSolver)->Arg(4)->Arg(16)->Arg(32);

void
BM_SparseSpmv(benchmark::State &state)
{
    // CSR y = A x on a banded random matrix with ~9 nonzeros per row,
    // the access pattern of the truncated LD-QBD generator.
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    Rng rng(13);
    la::Triplets trips;
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t d = 0; d < 9; ++d) {
            const std::size_t col =
                (i + n + d) % n; // banded wrap, 9 diagonals
            trips.push_back({i, col, rng.uniform01()});
        }
    const la::CsrMatrix mat = la::CsrMatrix::fromTriplets(n, n, trips);
    la::Vector x(n, 1.0), y(n, 0.0);
    for (auto _ : state) {
        mat.multiply(x.data(), y.data());
        benchmark::DoNotOptimize(y.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<std::int64_t>(2 * mat.values().size()));
}
BENCHMARK(BM_SparseSpmv)->Arg(4096)->Arg(65536);

/**
 * Build and solve the chain end to end, as solveXbarChain /
 * solveOmegaChain do, and report the last solve's deterministic work
 * counters.
 */
template <class Model>
void
runLdQbd(benchmark::State &state, const markov::NetChainParams &prm)
{
    markov::LdQbdResult res;
    for (auto _ : state) {
        const Model model(prm);
        res = markov::solveStationary(model);
        auto sol = markov::chainSolution(model, res);
        benchmark::DoNotOptimize(sol.queueingDelay);
    }
    state.counters["factorizations"] =
        static_cast<double>(res.factorizations);
    state.counters["gmres_iterations"] =
        static_cast<double>(res.gmresIterations);
    state.counters["depth_solves"] = static_cast<double>(res.depthSolves);
}

/** Chain parameters of a square j = k paper sweep cell, r = 2. */
markov::NetChainParams
ldQbdParams(std::size_t k)
{
    markov::NetChainParams prm;
    prm.processors = k;
    prm.buses = k;
    prm.resources = 2;
    prm.muN = 1.0;
    prm.muS = 0.1;
    prm.lambda = 0.5 * static_cast<double>(prm.resources) * prm.muS;
    return prm;
}

void
BM_XbarLdQbd(benchmark::State &state)
{
    // Exact crossbar chain for a paper sweep cell (arg = buses k of a
    // square j = k network, r = 2): build + adaptive solve, the cost a
    // figure point pays instead of a simulation run.
    runLdQbd<markov::XbarChainModel>(
        state, ldQbdParams(static_cast<std::size_t>(state.range(0))));
}
BENCHMARK(BM_XbarLdQbd)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void
BM_OmegaLdQbd(benchmark::State &state)
{
    const auto k = static_cast<std::size_t>(state.range(0));
    markov::NetChainParams prm = ldQbdParams(k);
    prm.linkConflict = omegaLinkConflict(k);
    runLdQbd<markov::OmegaChainModel>(state, prm);
}
BENCHMARK(BM_OmegaLdQbd)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

/** The same cell at paper traffic intensity 0.95, close below
 *  capacity: deep truncations and the most Krylov iterations. */
markov::NetChainParams
ldQbdHighLoadParams(std::size_t k)
{
    markov::NetChainParams prm = ldQbdParams(k);
    prm.lambda = queueing::arrivalRateForIntensity(
        k, k * prm.resources, 0.95, prm.muN, prm.muS);
    return prm;
}

void
BM_XbarLdQbdHighLoad(benchmark::State &state)
{
    runLdQbd<markov::XbarChainModel>(
        state,
        ldQbdHighLoadParams(static_cast<std::size_t>(state.range(0))));
}
BENCHMARK(BM_XbarLdQbdHighLoad)->Arg(8)->Unit(benchmark::kMillisecond);

void
BM_OmegaLdQbdHighLoad(benchmark::State &state)
{
    const auto k = static_cast<std::size_t>(state.range(0));
    markov::NetChainParams prm = ldQbdHighLoadParams(k);
    prm.linkConflict = omegaLinkConflict(k);
    runLdQbd<markov::OmegaChainModel>(state, prm);
}
BENCHMARK(BM_OmegaLdQbdHighLoad)->Arg(8)->Unit(benchmark::kMillisecond);

void
BM_PartitionedDes(benchmark::State &state)
{
    // Parallel-in-run DES on a large-p SBUS system: the arg is the
    // shard count (1 = the serial oracle).  Every shard count computes
    // the bit-identical result, so the ratio between the /1 and /4
    // rows is the pure engine speedup: threads, less the barrier cost
    // of each window, plus slightly cheaper per-shard calendars.
    const auto shards = static_cast<std::size_t>(state.range(0));
    const auto cfg = SystemConfig::parse("16384/1024x1x1 SBUS/2");
    workload::WorkloadParams params;
    params.muN = 1.0;
    params.muS = 0.4;
    params.lambda = lambdaForRho(cfg, 0.5, params.muN, params.muS);
    std::unique_ptr<exec::ThreadPool> pool;
    if (shards > 1)
        pool = std::make_unique<exec::ThreadPool>(shards);
    for (auto _ : state) {
        SimOptions opts;
        opts.seed = 11;
        opts.warmupTasks = 800;
        opts.measureTasks = 8000;
        opts.shards = shards;
        auto res = simulate(cfg, params, opts, {}, pool.get());
        // rsin-lint: allow(R5): timing kernel discards the estimate
        benchmark::DoNotOptimize(res.meanDelay);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * 8800));
}
BENCHMARK(BM_PartitionedDes)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond)->UseRealTime();

void
BM_EndToEndOmegaSimulation(benchmark::State &state)
{
    const auto cfg = SystemConfig::parse("16/1x16x16 OMEGA/2");
    workload::WorkloadParams params;
    params.lambda = 0.05;
    params.muN = 1.0;
    params.muS = 0.1;
    for (auto _ : state) {
        SimOptions opts;
        opts.seed = 5;
        opts.warmupTasks = 200;
        opts.measureTasks = 2000;
        auto res = simulate(cfg, params, opts);
        // rsin-lint: allow(R5): timing kernel discards the estimate
        benchmark::DoNotOptimize(res.meanDelay);
    }
}
BENCHMARK(BM_EndToEndOmegaSimulation);

void
BM_DispatchScaling(benchmark::State &state)
{
    // Cost of the simulation path per fired event as the system grows:
    // p processors on p/n networks of n ports, p/(p/n)xnxn OMEGA/2 at
    // rho 0.7, ratio 0.1.  Dispatch is event-local, so with n fixed the
    // cost should stay flat in p.  With one network of n ports it grows
    // with the stale availability registers a route reads and must
    // recompute: those on paths toward the ports that changed since
    // their last read, about 11 per task at n = 16 and 110 at n = 1024
    // (a claim or release itself only stamps log2(n)+1 output blocks).
    // Construction (the reachability tables) is not timed.
    const auto p = static_cast<std::size_t>(state.range(0));
    const auto n = static_cast<std::size_t>(state.range(1));
    const auto cfg = SystemConfig::parse(
        std::to_string(p) + "/" + std::to_string(p / n) + "x" +
        std::to_string(n) + "x" + std::to_string(n) + " OMEGA/2");
    workload::WorkloadParams params;
    params.muN = 1.0;
    params.muS = 0.1;
    params.lambda = lambdaForRho(cfg, 0.7, params.muN, params.muS);
    SimOptions opts;
    opts.seed = 3;
    opts.measureTasks = std::max<std::uint64_t>(20000, 20 * p);
    opts.warmupTasks = opts.measureTasks / 10;
    std::uint64_t fired = 0;
    double seconds = 0.0;
    for (auto _ : state) {
        const auto system = makeSystem(cfg, params, opts);
        const auto start = std::chrono::steady_clock::now();
        const SimResult res = system->run();
        const std::chrono::duration<double> took =
            std::chrono::steady_clock::now() - start;
        benchmark::DoNotOptimize(res.kernel.fired);
        state.SetIterationTime(took.count());
        seconds += took.count();
        fired += res.kernel.fired;
    }
    state.counters["ns_per_event"] =
        1e9 * seconds / static_cast<double>(std::max<std::uint64_t>(fired, 1));
}
BENCHMARK(BM_DispatchScaling)
    ->Args({16, 16})->Args({256, 16})->Args({1024, 16})->Args({4096, 16})
    ->Args({256, 256})->Args({1024, 1024})
    ->Unit(benchmark::kMillisecond)->UseManualTime();

} // namespace

#ifndef RSIN_BUILD_TYPE
#define RSIN_BUILD_TYPE ""
#endif

/**
 * Custom main instead of BENCHMARK_MAIN so the JSON context carries
 * the build type this binary was actually compiled with.  (The
 * distro's libbenchmark reports its *own* build flavour under
 * "library_build_type", which says nothing about our flags;
 * emit_bench.sh / check_bench.sh gate on "rsin_build_type".)
 */
int
main(int argc, char **argv)
{
    benchmark::AddCustomContext("rsin_build_type", RSIN_BUILD_TYPE);
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
