#pragma once

/**
 * @file
 * Shared plumbing for the figure-reproduction benches: a common rho
 * grid, analytic and simulated delay curves, and aligned table output.
 * Every bench prints normalized delay (mu_s * d) against the paper's
 * traffic intensity rho, exactly the axes of Figs. 4-13.
 *
 * All curves use the *same* traffic normalization base (16 processors,
 * 32 resources) so different configurations see identical arrival
 * rates at a given rho, as in the paper's figures; configurations with
 * more resources (e.g. private buses with r = 3, 4) are simply better
 * provisioned at the same offered load.
 *
 * Observability: every table point a bench prints is also appended to
 * a process-wide obs::RunLog as a structured RunRecord (per
 * replication plus the aggregate backing the cell).  The shared flags
 * --out PATH / --format json|csv write the log as one artifact at
 * finishBench(); --progress streams a live cell counter to stderr
 * during parallel sweeps.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/args.hpp"
#include "common/error.hpp"
#include "common/table.hpp"
#include "common/text.hpp"
#include "exec/sweep_runner.hpp"
#include "exec/thread_pool.hpp"
#include "obs/run_log.hpp"
#include "rsin/analysis.hpp"
#include "rsin/analysis_cache.hpp"
#include "rsin/factory.hpp"

namespace rsin {
namespace bench {

/** Process-wide bench state: worker pool, run log, artifact options. */
struct BenchContext
{
    std::unique_ptr<exec::ThreadPool> pool;
    std::unique_ptr<exec::SweepObserver> observer;
    obs::RunLog log;
    std::string out;                       ///< artifact path; "" = none
    obs::Format format = obs::Format::Json;
    std::chrono::steady_clock::time_point start;
    /** Values of the bench-specific options passed to initBench. */
    std::map<std::string, std::string> extra;
};

inline BenchContext &
benchContext()
{
    static BenchContext ctx;
    return ctx;
}

/** A bench-specific option's value ("" when absent); the option must
 *  have been declared via initBench's extra_options. */
inline std::string
benchOption(const std::string &name)
{
    const auto &extra = benchContext().extra;
    const auto it = extra.find(name);
    return it == extra.end() ? std::string() : it->second;
}

/** The bench pool, or nullptr when running serially. */
inline exec::ThreadPool *
sweepPool()
{
    return benchContext().pool.get();
}

/** The bench's run log (always collecting; --out decides emission). */
inline obs::RunLog &
runLog()
{
    return benchContext().log;
}

/**
 * Parse the common bench options and size the sweep pool:
 *   --jobs N        worker count (0 or absent: one per hardware thread)
 *   --out PATH      write the collected run records to PATH at exit
 *   --format F      artifact format, json (default) or csv
 *   --progress      live cells-done line on stderr during sweeps
 * Cell results are seed-deterministic, so none of these change a table
 * cell, only wall-clock time and side artifacts.
 */
inline void
initBench(int argc, const char *const *argv,
          const std::set<std::string> &extra_options = {})
{
    try {
        std::set<std::string> options{"jobs", "out", "format"};
        options.insert(extra_options.begin(), extra_options.end());
        const ArgParser args(argc, argv, {"progress"}, options);
        auto &ctx = benchContext();
        for (const auto &name : extra_options)
            ctx.extra[name] = args.get(name);
        const std::size_t jobs = args.getJobs();
        ctx.out = args.get("out");
        ctx.format = obs::parseFormat(args.get("format", "json"));
        // Every flag is valid before the first worker thread starts.
        if (jobs > 1)
            ctx.pool = std::make_unique<exec::ThreadPool>(jobs);
        std::string bench = args.program();
        const auto slash = bench.find_last_of('/');
        if (slash != std::string::npos)
            bench = bench.substr(slash + 1);
        ctx.log.setBench(bench);
        ctx.observer = std::make_unique<exec::SweepObserver>(
            bench, args.flag("progress") ? &std::cerr : nullptr);
        ctx.start = std::chrono::steady_clock::now();
    } catch (const FatalError &e) {
        // A bad flag is a usage error, not a crash: report it and exit
        // 1, as rsin_sweep and rsin_campaign do.
        std::cerr << e.what() << "\n";
        std::exit(1);
    }
}

/**
 * Flush the run log to --out (if given) and return main()'s exit
 * status.  Call as the last statement of every bench main().
 */
inline int
finishBench()
{
    auto &ctx = benchContext();
    if (ctx.observer) {
        const std::chrono::duration<double> wall =
            std::chrono::steady_clock::now() - ctx.start;
        ctx.log.noteSweep(ctx.observer->stats(), wall.count());
    }
    if (!ctx.out.empty()) {
        ctx.log.writeFile(ctx.out, ctx.format);
        std::cerr << "wrote " << ctx.log.size() << " run records to "
                  << ctx.out << "\n";
    }
    const auto cache = AnalysisCache::global().stats();
    if (cache.hits + cache.misses + cache.waits > 0)
        std::cerr << "analysis cache: " << cache.hits << " hits, "
                  << cache.misses << " misses, " << cache.waits
                  << " waits, " << cache.entries << " entries\n";
    return 0;
}

/** The rho sweep used by all delay figures. */
inline std::vector<double>
rhoGrid()
{
    return {0.10, 0.20, 0.30, 0.40, 0.50, 0.60, 0.70, 0.80, 0.90};
}

/**
 * Format a normalized delay cell; saturated points print "inf",
 * no-data points (NaN) print "n/a" instead of leaking "nan".
 */
inline std::string
cell(double normalized_delay, bool stable)
{
    if (std::isnan(normalized_delay))
        return "n/a";
    if (!stable || normalized_delay > 1e6)
        return "inf";
    return formatf("%.4f", normalized_delay);
}

/** One named curve of normalized delays over the rho grid. */
struct Curve
{
    std::string name;
    std::vector<std::string> cells;
};

/** The shared 16-processor / 32-resource normalization base. */
inline SystemConfig
normalizationBase()
{
    return SystemConfig::parse("16/2x1x1 SBUS/16");
}

/** Arrival rate for rho under the shared normalization. */
inline double
lambdaAt(double rho, double mu_n, double mu_s)
{
    return lambdaForRho(normalizationBase(), rho, mu_n, mu_s);
}

/** Append one record for a table point to the bench run log. */
inline void
logPoint(const std::string &curve, const std::string &config,
         obs::RecordKind kind, double rho, double lambda, double mu_n,
         double mu_s, std::uint64_t seed, int replication,
         const SimResult &result, double wall_seconds,
         std::string display)
{
    obs::RunRecord rec;
    rec.curve = curve;
    rec.config = config;
    rec.kind = kind;
    rec.rho = rho;
    rec.lambda = lambda;
    rec.muN = mu_n;
    rec.muS = mu_s;
    rec.seed = seed;
    rec.replication = replication;
    rec.display = std::move(display);
    rec.wallSeconds = wall_seconds;
    rec.result = result;
    runLog().add(std::move(rec));
}

/**
 * Build a Curve from any analytic solver closure (lambda ->
 * markov::SbusSolution), logging each point as an Analytic record.
 * The grid points fan out over the sweep pool like simulated cells;
 * solver calls route through the AnalysisCache, so a curve sharing
 * chains with an earlier one (or a concurrent cell) dedupes to
 * lookups.  The log/table pass stays serial, so the output is
 * identical at any --jobs setting.
 */
template <typename Solver>
inline Curve
analyticCurve(const std::string &name, const std::string &config_text,
              double mu_n, double mu_s, Solver &&solve)
{
    Curve curve{name, {}};
    const auto grid = rhoGrid();
    std::vector<double> lambdas(grid.size());
    for (std::size_t p = 0; p < grid.size(); ++p)
        lambdas[p] = lambdaAt(grid[p], mu_n, mu_s);
    std::vector<markov::SbusSolution> sols(grid.size());
    std::vector<double> wall(grid.size(), 0.0);
    const exec::SweepRunner runner(sweepPool(),
                                   benchContext().observer.get());
    runner.run(1, grid.size(), 1, 0,
               [&](const exec::SweepCell &sweep_cell) {
                   const std::size_t p = sweep_cell.point;
                   const auto start = std::chrono::steady_clock::now();
                   sols[p] = solve(lambdas[p]);
                   const std::chrono::duration<double> dt =
                       std::chrono::steady_clock::now() - start;
                   wall[p] = dt.count();
               });
    for (std::size_t p = 0; p < grid.size(); ++p) {
        const markov::SbusSolution &sol = sols[p];
        curve.cells.push_back(cell(sol.normalizedDelay, sol.stable));
        runLog().add(obs::analyticRecord(name, config_text, grid[p],
                                         lambdas[p], mu_n, mu_s, sol,
                                         wall[p], curve.cells.back()));
    }
    return curve;
}

/** Analytic SBUS curve (matrix-geometric solver). */
inline Curve
sbusAnalyticCurve(const std::string &config_text, double mu_n, double mu_s)
{
    const auto cfg = SystemConfig::parse(config_text);
    return analyticCurve(config_text + " (analytic)", config_text, mu_n,
                         mu_s, [&](double lambda) {
                             return analyzeSbus(cfg, lambda, mu_n, mu_s);
                         });
}

/**
 * Exact LD-QBD chain curve for a crossbar or Omega configuration,
 * appended to @p curves when the configuration is in range of the
 * exact solvers (rsin::xbarExactInRange / omegaExactInRange); returns
 * whether a curve was added.  Every point carries a certified relative
 * truncation bound (markov::SbusSolution::truncationBound), making
 * these curves analytic references for the simulated ones.
 */
inline bool
appendExactChainCurve(std::vector<Curve> &curves,
                      const std::string &config_text, double mu_n,
                      double mu_s)
{
    const auto cfg = SystemConfig::parse(config_text);
    if (xbarExactInRange(cfg)) {
        curves.push_back(analyticCurve(
            config_text + " (exact chain)", config_text, mu_n, mu_s,
            [&](double lambda) {
                return xbarExact(cfg, lambda, mu_n, mu_s);
            }));
        return true;
    }
    if (omegaExactInRange(cfg)) {
        curves.push_back(analyticCurve(
            config_text + " (exact chain)", config_text, mu_n, mu_s,
            [&](double lambda) {
                return omegaExact(cfg, lambda, mu_n, mu_s);
            }));
        return true;
    }
    return false;
}

/** M/M/1 curve for a private bus with unlimited resources. */
inline Curve
privateBusInfinityCurve(double mu_n, double mu_s)
{
    const auto cfg = SystemConfig::parse("16/16x1x1 SBUS/1");
    return analyticCurve("16/16x1x1 SBUS/inf (M/M/1)",
                         "16/16x1x1 SBUS/inf", mu_n, mu_s,
                         [&](double lambda) {
                             return privateBusUnlimited(cfg, lambda,
                                                        mu_n, mu_s);
                         });
}

/**
 * Simulated curve for any configuration.  Every (rho, replication)
 * cell is an independent run whose seed depends only on its grid
 * coordinates, so the cells fan out over the sweep pool and the table
 * is identical at any --jobs setting (and to the old serial loop).
 * Each replication and the per-point aggregate are appended to the
 * bench run log; the aggregate's display string IS the table cell.
 */
inline Curve
simulatedCurve(const std::string &config_text, double mu_n, double mu_s,
               const ModelOptions &model = {},
               std::uint64_t measure_tasks = 20000,
               std::size_t replications = 3)
{
    const auto cfg = SystemConfig::parse(config_text);
    Curve curve{config_text + " (sim)", {}};
    const auto grid = rhoGrid();
    const std::uint64_t base_seed = 1000;
    std::vector<workload::WorkloadParams> params(grid.size());
    std::vector<std::vector<std::uint64_t>> seeds(grid.size());
    for (std::size_t p = 0; p < grid.size(); ++p) {
        params[p].muN = mu_n;
        params[p].muS = mu_s;
        params[p].lambda = lambdaAt(grid[p], mu_n, mu_s);
        seeds[p] = replicationSeeds(base_seed + p, replications);
    }
    std::vector<SimResult> runs(grid.size() * replications);
    std::vector<double> wall(grid.size() * replications, 0.0);
    const exec::SweepRunner runner(sweepPool(),
                                   benchContext().observer.get());
    runner.run(1, grid.size(), replications, base_seed,
               [&](const exec::SweepCell &sweep_cell) {
                   SimOptions opts;
                   opts.seed =
                       seeds[sweep_cell.point][sweep_cell.replication];
                   opts.warmupTasks = measure_tasks / 10;
                   opts.measureTasks = measure_tasks;
                   const auto start = std::chrono::steady_clock::now();
                   runs[sweep_cell.flat] =
                       simulate(cfg, params[sweep_cell.point], opts, model);
                   const std::chrono::duration<double> dt =
                       std::chrono::steady_clock::now() - start;
                   wall[sweep_cell.flat] = dt.count();
               });
    for (std::size_t p = 0; p < grid.size(); ++p) {
        double point_wall = 0.0;
        for (std::size_t r = 0; r < replications; ++r) {
            const auto &run = runs[p * replications + r];
            logPoint(curve.name, config_text, obs::RecordKind::Run,
                     grid[p], params[p].lambda, mu_n, mu_s, seeds[p][r],
                     static_cast<int>(r), run,
                     wall[p * replications + r],
                     obs::displayValue(run, run.normalizedDelay));
            point_wall += wall[p * replications + r];
        }
        std::vector<SimResult> slice(
            runs.begin() + static_cast<std::ptrdiff_t>(p * replications),
            runs.begin() +
                static_cast<std::ptrdiff_t>((p + 1) * replications));
        const auto res = aggregateReplications(std::move(slice), params[p]);
        std::string text = obs::displayValue(res, res.normalizedDelay);
        logPoint(curve.name, config_text, obs::RecordKind::Aggregate,
                 grid[p], params[p].lambda, mu_n, mu_s, 0, -1, res,
                 point_wall, text);
        curve.cells.push_back(std::move(text));
    }
    return curve;
}

/** Render curves as a rho-indexed table. */
inline void
printCurves(const std::string &title, const std::vector<Curve> &curves)
{
    TextTable table(title);
    std::vector<std::string> head{"rho"};
    for (const auto &c : curves)
        head.push_back(c.name);
    table.header(std::move(head));
    const auto grid = rhoGrid();
    for (std::size_t i = 0; i < grid.size(); ++i) {
        std::vector<std::string> row{formatf("%.2f", grid[i])};
        for (const auto &c : curves)
            row.push_back(c.cells.at(i));
        table.row(std::move(row));
    }
    table.print(std::cout);
    std::cout << "\n";
}

} // namespace bench
} // namespace rsin
