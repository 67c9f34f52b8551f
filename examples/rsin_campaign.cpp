/**
 * @file
 * Sharded, resumable campaign runner: expand a declarative scenario
 * matrix into cells, run them across worker threads and (optionally)
 * several processes, and stream every result into an append-only,
 * crash-consistent run-record ledger (docs/CAMPAIGN.md).
 *
 *   ./rsin_campaign "16/16x1x1 SBUS/2;16/1x16x16 OMEGA/2" \
 *       --ledger out/campaign --ratios 0.1,0.5 --steps 5 \
 *       --tasks 5000 --replications 2 --jobs 8
 *
 * Restarting with the same --ledger directory resumes: completed
 * cells (status ok/saturated) are skipped, torn or tainted
 * (truncated/no-data) cells re-run, and -- because every cell's seed
 * is a pure function of its matrix coordinates -- the merged record
 * set is bit-identical to an uninterrupted run.
 *
 * Multi-process operation: start N processes with the same matrix and
 * --shard-count N, --shard-index 0..N-1.  Cells are dealt round-robin
 * by plan index, so the assignment is stable across resumes; each
 * process appends to its own ledger segment family and they never
 * contend.
 *
 * --jobs fans cells out over worker threads.
 *
 * Every configuration with an exact Markov chain (SBUS, and the
 * crossbar and Omega shapes in range of the LD-QBD solvers) also gets
 * analytic cells.  They are solved in plan order as one lane on the
 * worker pool, beside the simulation cells; the solver memo is
 * persisted next to the ledger (analysis_cache.txt) so a resume
 * serves them from the cache.
 *
 * Test hooks: --kill-after-cells N raises SIGKILL after the Nth
 * ledger append (crash-consistency tests), --deterministic zeroes
 * wall-clock fields so record and export bytes are run-independent.
 */

#include <chrono>
#include <csignal>
#include <cstdint>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/args.hpp"
#include "common/error.hpp"
#include "common/fsio.hpp"
#include "common/text.hpp"
#include "exec/sweep_runner.hpp"
#include "exec/thread_pool.hpp"
#include "obs/ledger.hpp"
#include "obs/run_log.hpp"
#include "rsin/analysis.hpp"
#include "rsin/analysis_cache.hpp"
#include "rsin/campaign.hpp"
#include "rsin/factory.hpp"

namespace {

using namespace rsin;

/** Comma-separated token list; fallback when the option is absent. */
std::vector<std::string>
tokenList(const ArgParser &args, const std::string &name,
          const std::vector<std::string> &fallback)
{
    const std::string raw = args.get(name);
    if (raw.empty())
        return fallback;
    std::vector<std::string> tokens;
    for (auto &tok : split(raw, ','))
        if (!trim(tok).empty())
            tokens.push_back(trim(tok));
    RSIN_REQUIRE(!tokens.empty(), "--", name, ": empty list");
    return tokens;
}

/** Comma-separated double list. */
std::vector<double>
doubleList(const ArgParser &args, const std::string &name,
           const std::vector<double> &fallback)
{
    std::vector<double> values;
    for (const auto &tok : tokenList(args, name, {})) {
        const auto v = parseDouble(tok);
        RSIN_REQUIRE(v.has_value(), "--", name, ": bad number '", tok,
                     "'");
        values.push_back(*v);
    }
    return values.empty() ? fallback : values;
}

CampaignSpec
specFromArgs(const ArgParser &args)
{
    CampaignSpec spec;
    for (const auto &pos : args.positional())
        for (auto &text : split(pos, ';'))
            if (!trim(text).empty())
                spec.configs.push_back(SystemConfig::parse(trim(text)));
    spec.schedulers = tokenList(args, "schedulers", {"default"});
    spec.policies = tokenList(args, "policies", {"most-resources"});
    spec.workloads = tokenList(args, "workloads", {"exp"});
    spec.ratios = doubleList(args, "ratios", {0.1});
    spec.rhoMin = args.getDouble("rho-min", 0.1);
    spec.rhoMax = args.getDouble("rho-max", 0.9);
    spec.rhoSteps = args.getCount("steps", 9);
    spec.tasks = args.getCount("tasks", 20000);
    spec.replications = args.getCount("replications", 1);
    spec.seed = args.getUnsigned("seed", 1);
    spec.muN = args.getDouble("mu-n", 1.0);
    spec.analytic = !args.flag("no-analytic");
    return spec;
}

/** Completed = converged verdict: ok and saturated records stand;
 *  truncated / no-data cells are re-run on resume. */
bool
recordCompleted(const obs::RunRecord &record)
{
    return record.result.status == RunStatus::Ok ||
           record.result.status == RunStatus::Saturated;
}

/** Shared --kill-after-cells accounting across worker threads. */
struct KillSwitch
{
    std::size_t killAfter = 0; ///< 0 disables the hook

    void
    maybeKill(std::size_t appended) const
    {
        if (killAfter > 0 && appended >= killAfter) {
            // SIGKILL, not exit(): the point is to die with a torn
            // ledger tail exactly like a crashed or OOM-killed run.
            std::raise(SIGKILL);
        }
    }
};

obs::RunRecord
simulationRecord(const CampaignSpec &spec, const CampaignCell &cell,
                 const SimResult &res, double wall_seconds)
{
    obs::RunRecord rec;
    rec.curve = cellCurve(spec, cell);
    rec.config = spec.configs[cell.configIndex].str();
    rec.kind = obs::RecordKind::Run;
    rec.rho = cell.rho;
    rec.lambda = cell.lambda;
    rec.muN = spec.muN;
    rec.muS = spec.muN * cell.ratio;
    rec.seed = cell.seed;
    rec.replication = cell.replication;
    rec.display = obs::displayValue(res, res.normalizedDelay, "%.5f");
    rec.wallSeconds = wall_seconds;
    rec.result = res;
    return rec;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const ArgParser args(
            argc, argv,
            {"no-analytic", "progress", "deterministic", "help"},
            {"schedulers", "policies", "workloads", "ratios",
             "rho-min", "rho-max", "steps", "tasks", "replications",
             "seed", "mu-n", "ledger", "jobs", "shard-index",
             "shard-count", "out", "format", "kill-after-cells"});
        if (args.flag("help") || args.positional().empty()) {
            std::cout
                << "usage: " << args.program()
                << " CONFIG[;CONFIG...] --ledger DIR [options]\n"
                   "Scenario matrix (each option multiplies the"
                   " campaign):\n"
                   "  --schedulers default,distributed-clocked,"
                   "address-random,address-first\n"
                   "  --policies most-resources,prefer-upper,"
                   "random-tie\n"
                   "  --workloads exp,det,erlang2,hyper2\n"
                   "  --ratios R1,R2,...      mu_s/mu_n ratios\n"
                   "  --rho-min A --rho-max B --steps N   rho grid\n"
                   "  --replications N        runs per grid point\n"
                   "Run control:\n"
                   "  --ledger DIR   (required) resumable run-record"
                   " ledger\n"
                   "  --tasks N --seed S --mu-n M --no-analytic\n"
                   "  --jobs J       cell fan-out workers (0 = all"
                   " hardware threads)\n"
                   "  --shard-index I --shard-count N   multi-process"
                   " sharding\n"
                   "  --out PATH --format json|csv      export merged"
                   " records\n"
                   "  --progress --deterministic"
                   " --kill-after-cells N\n"
                   "Restarting with the same --ledger resumes: done"
                   " cells are\nskipped, torn/tainted cells re-run;"
                   " the merged records are\nbit-identical to an"
                   " uninterrupted run.\n";
            return args.flag("help") ? 0 : 1;
        }

        const CampaignSpec spec = specFromArgs(args);
        const std::string ledger_dir = args.get("ledger");
        RSIN_REQUIRE(!ledger_dir.empty(),
                     "--ledger DIR is required (the resume state)");
        const std::size_t jobs = args.getJobs();
        const std::size_t shard_count = args.getCount("shard-count", 1);
        const auto shard_index =
            static_cast<std::size_t>(args.getUnsigned("shard-index", 0));
        RSIN_REQUIRE(shard_index < shard_count,
                     "--shard-index must be < --shard-count");
        KillSwitch kill;
        kill.killAfter = static_cast<std::size_t>(
            args.getUnsigned("kill-after-cells", 0));
        const bool deterministic = args.flag("deterministic");
        const std::string out = args.get("out");
        const obs::Format out_format =
            obs::parseFormat(args.get("format", "json"));

        const std::string canonical = canonicalSpec(spec);
        const std::vector<CampaignCell> cells = planCampaign(spec);

        // The ledger IS the resume state: replay it, keep every
        // completed cell, re-run the rest.  The writer recovers this
        // shard's crashed .open segments before the first append.
        obs::LedgerWriter writer(ledger_dir, shard_index, canonical);
        const std::string cache_path =
            ledger_dir + "/analysis_cache.txt";
        const std::size_t cache_loaded =
            AnalysisCache::global().load(cache_path);
        const obs::LedgerReplay replay =
            obs::replayLedger(ledger_dir, canonical);

        std::size_t skipped = 0, tainted = 0;
        std::vector<const CampaignCell *> todo;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            // Deal by plan index over ALL cells (not just remaining)
            // so the process-shard assignment is stable across
            // resumes.
            if (i % shard_count != shard_index)
                continue;
            const auto it = replay.entries.find(cells[i].key);
            if (it != replay.entries.end()) {
                if (recordCompleted(it->second.record)) {
                    ++skipped;
                    continue;
                }
                ++tainted;
            }
            todo.push_back(&cells[i]);
        }
        std::cout << "campaign: " << cells.size() << " cells ("
                  << canonical.size() << "-byte spec), shard "
                  << shard_index << "/" << shard_count << ": "
                  << skipped << " done, " << tainted
                  << " tainted re-run, " << replay.tornRecords
                  << " torn, " << todo.size() << " to run";
        if (cache_loaded > 0)
            std::cout << " (" << cache_loaded
                      << " cached analytic solves)";
        std::cout << "\n";

        exec::SweepObserver observer(
            "rsin_campaign",
            args.flag("progress") ? &std::cerr : nullptr);
        std::unique_ptr<exec::ThreadPool> pool;
        if (jobs > 1)
            pool = std::make_unique<exec::ThreadPool>(jobs);
        const auto wallSince =
            [deterministic](std::chrono::steady_clock::time_point t0) {
                const std::chrono::duration<double> dt =
                    std::chrono::steady_clock::now() - t0;
                return deterministic ? 0.0 : dt.count();
            };

        std::vector<const CampaignCell *> analytic_cells, sim_cells;
        for (const CampaignCell *cell : todo)
            (cell->analytic ? analytic_cells : sim_cells).push_back(cell);

        // The analytic lane: exact solver points in plan order, served
        // from (and refilling) the persisted memo.  One lane rather than
        // one task per cell, because a 495-phase solve holds 7-11 MiB
        // at its peak (more at high load): solves side by side would
        // multiply that.
        const auto solveAnalytic = [&] {
            for (const CampaignCell *cell : analytic_cells) {
                const auto &cfg = spec.configs[cell->configIndex];
                const double mu_s = spec.muN * cell->ratio;
                const auto t0 = std::chrono::steady_clock::now();
                const auto sol =
                    cfg.network == NetworkClass::SingleBus
                        ? analyzeSbus(cfg, cell->lambda, spec.muN, mu_s)
                    : xbarExactInRange(cfg)
                        ? xbarExact(cfg, cell->lambda, spec.muN, mu_s)
                        : omegaExact(cfg, cell->lambda, spec.muN, mu_s);
                kill.maybeKill(writer.append(
                    cell->key,
                    obs::analyticRecord(
                        cellCurve(spec, *cell), cfg.str(), cell->rho,
                        cell->lambda, spec.muN, mu_s, sol, wallSince(t0),
                        sol.stable ? formatf("%.5f", sol.normalizedDelay)
                                   : "inf")));
            }
        };

        // Simulation cells through the explicit-cell-list scheduling
        // hook: seeds ride in the cells, so any subset runs on any
        // worker with bit-identical results.
        std::vector<exec::SweepCell> sweep_cells;
        sweep_cells.reserve(sim_cells.size());
        for (std::size_t i = 0; i < sim_cells.size(); ++i) {
            exec::SweepCell sc;
            sc.config = sim_cells[i]->configIndex;
            sc.point = sim_cells[i]->rhoIndex;
            sc.replication =
                static_cast<std::size_t>(sim_cells[i]->replication);
            sc.flat = i;
            sc.seed = sim_cells[i]->seed;
            sweep_cells.push_back(sc);
        }
        const exec::SweepRunner runner(pool.get(), &observer);
        const auto simulateAll = [&] {
            runner.runCells(sweep_cells, [&](const exec::SweepCell &sc) {
                const CampaignCell &cell = *sim_cells[sc.flat];
                SimOptions opts;
                opts.seed = cell.seed;
                opts.warmupTasks = spec.tasks / 10;
                opts.measureTasks = spec.tasks;
                const auto t0 = std::chrono::steady_clock::now();
                const SimResult res = simulate(
                    spec.configs[cell.configIndex],
                    cellWorkload(spec, cell), opts, cellModel(spec, cell));
                kill.maybeKill(writer.append(
                    cell.key,
                    simulationRecord(spec, cell, res, wallSince(t0))));
            });
        };

        if (pool) {
            // The lane starts first; the other pool threads run the
            // simulation cells meanwhile (the nested runCells call
            // drains on whichever threads are free).  A throw from
            // either branch is rethrown here once both have finished.
            pool->parallelFor(2, [&](std::size_t branch) {
                if (branch == 0)
                    solveAnalytic();
                else
                    simulateAll();
            });
        } else {
            solveAnalytic();
            simulateAll();
        }
        writer.close();
        AnalysisCache::global().save(cache_path);

        // Merged view across every shard's segments, for the summary
        // and the optional artifact export.
        const obs::LedgerReplay merged =
            obs::replayLedger(ledger_dir, canonical);
        std::cout << "campaign: ledger now holds "
                  << merged.entries.size() << "/" << cells.size()
                  << " cells (" << merged.sealedSegments
                  << " sealed segments)\n";

        if (!out.empty()) {
            obs::RunLog log;
            log.setBench("rsin_campaign");
            // std::map iteration = key order: the export is
            // deterministic no matter which shard or resume pass
            // produced each record.
            for (const auto &[key, entry] : merged.entries)
                log.add(entry.record);
            exec::SweepStats sweep = observer.stats();
            if (deterministic)
                sweep.cellSecondsTotal = sweep.cellSecondsMax = 0.0;
            log.noteSweep(sweep, 0.0);
            log.writeFile(out, out_format);
            std::cout << "wrote " << log.size() << " run records to "
                      << out << "\n";
        }
    } catch (const FatalError &e) {
        std::cerr << e.what() << "\n";
        return 1;
    }
    return 0;
}
