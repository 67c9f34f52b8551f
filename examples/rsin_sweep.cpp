/**
 * @file
 * Command-line sweep tool: evaluate one or more configurations over a
 * traffic-intensity range and print a table or CSV -- the "give me the
 * curve for my system" entry point a downstream user reaches for.
 *
 *   ./rsin_sweep "16/1x16x16 OMEGA/2" "16/1x16x16 XBAR/2" \
 *       --ratio 0.1 --rho-min 0.1 --rho-max 0.9 --steps 9 \
 *       --tasks 20000 --seed 7 --jobs 8 [--shards P] [--csv]
 *       [--analytic] [--response] [--progress] [--out run.json]
 *       [--format json|csv]
 *
 * With --analytic, SBUS configurations are additionally solved with
 * the exact Markov model (matrix-geometric).  The (config, rho) cells
 * are independent simulations seeded from their grid coordinates, so
 * --jobs only changes wall-clock time, never a printed value.
 *
 * --shards moves the parallelism *inside* each run: the system is
 * partitioned by network and executed on that many calendar shards
 * (see docs/PERF.md).  SBUS cells print bit-identical values at any
 * shard count; 0 means "auto: one shard per worker of the pool
 * driving the run" (hardware threads when there is no pool) -- the
 * convention shared by every --shards option in the tree.  With
 * --shards active the worker pool drives the shards, so cells are
 * visited one at a time.
 *
 * Cells whose run produced no post-warmup observations (truncated or
 * no-data status) print "n/a" -- distinct from "inf", which means the
 * run was detected as saturated.  --out writes every cell as a
 * structured run record (see docs/OBSERVABILITY.md).
 */

#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
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
#include "rsin/factory.hpp"

int
main(int argc, char **argv)
{
    using namespace rsin;
    try {
        const ArgParser args(
            argc, argv,
            {"csv", "analytic", "response", "progress", "help"},
            {"ratio", "rho-min", "rho-max", "steps", "tasks", "seed",
             "mu-n", "jobs", "shards", "out", "format"});
        if (args.flag("help") || args.positional().empty()) {
            std::cout
                << "usage: " << args.program()
                << " CONFIG [CONFIG...] [--ratio R] [--rho-min A]"
                   " [--rho-max B]\n"
                   "       [--steps N] [--tasks N] [--seed S] [--mu-n M]"
                   " [--jobs J] [--shards P] [--csv] [--analytic]"
                   " [--response]\n"
                   "       [--progress] [--out PATH] [--format json|csv]\n"
                   "CONFIG uses the paper notation, e.g."
                   " '16/1x16x16 OMEGA/2'.\n"
                   "--jobs 0 (the default) uses every hardware"
                   " thread to run cells concurrently.\n"
                   "--shards P runs each simulation on P calendar"
                   " shards (partitioned\n"
                   "  by network; the output is bit-identical at any"
                   " P).  --shards 0\n"
                   "  means auto -- one shard per worker of the pool"
                   " driving the run\n"
                   "  (hardware threads when there is no pool);"
                   " the default 1 is the\n"
                   "  serial calendar.\n"
                   "--out writes every cell as a structured run record"
                   " (json or csv).\n";
            return args.flag("help") ? 0 : 1;
        }

        const double mu_n = args.getDouble("mu-n", 1.0);
        const double ratio = args.getDouble("ratio", 0.1);
        const double mu_s = mu_n * ratio;
        const double rho_min = args.getDouble("rho-min", 0.1);
        const double rho_max = args.getDouble("rho-max", 0.9);
        const std::size_t steps = args.getCount("steps", 9);
        const std::uint64_t tasks = args.getCount("tasks", 20000);
        const auto seed =
            static_cast<std::uint64_t>(args.getLong("seed", 1));
        const bool csv = args.flag("csv");
        const bool response = args.flag("response");
        const std::size_t jobs = args.getJobs();
        // Unified --shards convention (see ArgParser::getShards):
        // default 1 = serial calendar, 0 = auto (resolved by the run
        // layer against the pool that actually drives the shards),
        // P > 1 explicit.
        const std::size_t shards = args.getShards();
        const std::string out = args.get("out");
        const obs::Format out_format =
            obs::parseFormat(args.get("format", "json"));
        RSIN_REQUIRE(rho_max >= rho_min, "rho-max must be >= rho-min");

        std::vector<SystemConfig> configs;
        for (const auto &text : args.positional())
            configs.push_back(SystemConfig::parse(text));

        const auto rhoAt = [&](std::size_t step) {
            return steps == 1 ? rho_min
                              : rho_min + (rho_max - rho_min) *
                                              static_cast<double>(step) /
                                              static_cast<double>(steps - 1);
        };

        const auto start = std::chrono::steady_clock::now();
        obs::RunLog log;
        log.setBench("rsin_sweep");
        exec::SweepObserver observer(
            "rsin_sweep", args.flag("progress") ? &std::cerr : nullptr);

        // Simulate every (config, rho) cell up front, fanned out over
        // the worker pool; printing below then only reads results.
        // With --shards the pool moves inside each run (one level of
        // parallelism): cells go one at a time, each sharded.
        std::unique_ptr<exec::ThreadPool> pool;
        if (jobs > 1)
            pool = std::make_unique<exec::ThreadPool>(jobs);
        const bool sharded = shards != 1;
        std::vector<SimResult> results(configs.size() * steps);
        std::vector<double> wall(configs.size() * steps, 0.0);
        const exec::SweepRunner runner(sharded ? nullptr : pool.get(),
                                       &observer);
        runner.run(configs.size(), steps, 1, seed,
                   [&](const exec::SweepCell &sweep_cell) {
                       workload::WorkloadParams params;
                       params.muN = mu_n;
                       params.muS = mu_s;
                       params.lambda = lambdaForRho(
                           configs[sweep_cell.config],
                           rhoAt(sweep_cell.point),
                           mu_n, mu_s);
                       SimOptions opts;
                       opts.seed = seed + static_cast<std::uint64_t>(
                                              sweep_cell.point);
                       opts.warmupTasks = tasks / 10;
                       opts.measureTasks = tasks;
                       opts.shards = shards;
                       const auto t0 = std::chrono::steady_clock::now();
                       results[sweep_cell.flat] =
                           simulate(configs[sweep_cell.config], params,
                                    opts, {},
                                    sharded ? pool.get() : nullptr);
                       const std::chrono::duration<double> dt =
                           std::chrono::steady_clock::now() - t0;
                       wall[sweep_cell.flat] = dt.count();
                   });

        std::vector<std::string> head{"rho"};
        for (const auto &cfg : configs) {
            head.push_back(cfg.str() + (response ? " T" : " mu_s*d"));
            if (args.flag("analytic") &&
                cfg.network == NetworkClass::SingleBus)
                head.push_back(cfg.str() + " (analytic)");
        }

        TextTable table(csv ? "" : "rsin_sweep");
        table.header(head);

        for (std::size_t step = 0; step < steps; ++step) {
            const double rho = rhoAt(step);
            std::vector<std::string> row{formatf("%.3f", rho)};
            for (std::size_t c = 0; c < configs.size(); ++c) {
                const auto &cfg = configs[c];
                const double lambda = lambdaForRho(cfg, rho, mu_n, mu_s);
                const std::size_t flat = c * steps + step;
                const auto &res = results[flat];
                // Saturated -> "inf"; truncated / no-data -> "n/a" (a
                // run that completed nothing is not a zero delay).
                row.push_back(obs::displayValue(
                    res,
                    response ? res.meanResponse : res.normalizedDelay,
                    "%.5f"));
                {
                    obs::RunRecord rec;
                    rec.curve = cfg.str();
                    rec.config = cfg.str();
                    rec.kind = obs::RecordKind::Run;
                    rec.rho = rho;
                    rec.lambda = lambda;
                    rec.muN = mu_n;
                    rec.muS = mu_s;
                    rec.seed =
                        seed + static_cast<std::uint64_t>(step);
                    rec.replication = 0;
                    rec.display = row.back();
                    rec.wallSeconds = wall[flat];
                    rec.result = res;
                    log.add(std::move(rec));
                }
                if (args.flag("analytic") &&
                    cfg.network == NetworkClass::SingleBus) {
                    const auto sol = analyzeSbus(cfg, lambda, mu_n, mu_s);
                    // The analytic column always reports mu_s*d (the
                    // Markov model covers the queueing delay only).
                    row.push_back(sol.stable
                                      ? formatf("%.5f",
                                                sol.normalizedDelay)
                                      : "inf");
                    obs::RunRecord rec;
                    rec.curve = cfg.str() + " (analytic)";
                    rec.config = cfg.str();
                    rec.kind = obs::RecordKind::Analytic;
                    rec.rho = rho;
                    rec.lambda = lambda;
                    rec.muN = mu_n;
                    rec.muS = mu_s;
                    rec.replication = -1;
                    rec.display = row.back();
                    rec.result.status = sol.stable
                                            ? RunStatus::Ok
                                            : RunStatus::Saturated;
                    rec.result.saturated = !sol.stable;
                    rec.result.meanDelay = sol.queueingDelay;
                    rec.result.normalizedDelay = sol.normalizedDelay;
                    log.add(std::move(rec));
                }
            }
            table.row(std::move(row));
        }

        // RFC 4180 quoting lives in the table emitter; hand-joining
        // with ',' breaks as soon as a label carries a comma.
        if (csv)
            table.printCsv(std::cout);
        else
            table.print(std::cout);

        if (!out.empty()) {
            const std::chrono::duration<double> elapsed =
                std::chrono::steady_clock::now() - start;
            log.noteSweep(observer.stats(), elapsed.count());
            log.writeFile(out, out_format);
            std::cerr << "wrote " << log.size() << " run records to "
                      << out << "\n";
        }
    } catch (const FatalError &e) {
        std::cerr << e.what() << "\n";
        return 1;
    }
    return 0;
}
