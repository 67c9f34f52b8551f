/**
 * @file
 * The four benchmark workloads.  Each drives the library through its
 * public entry points only, repeats its fixed work in passes until the
 * time budget is spent, and checks every output it produces.
 */

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "bench.hpp"
#include "common/rng.hpp"
#include "exec/thread_pool.hpp"
#include "markov/ldqbd.hpp"
#include "markov/omega_model.hpp"
#include "markov/xbar_model.hpp"
#include "obs/ledger.hpp"
#include "rsin/analysis.hpp"
#include "rsin/analysis_cache.hpp"
#include "rsin/campaign.hpp"
#include "rsin/factory.hpp"

extern char **environ;

namespace e2ebench {

namespace {

using namespace rsin;
namespace fs = std::filesystem;

constexpr double kMuN = 1.0;
/** Worker threads of every parallel section (the host has 4 CPUs). */
constexpr std::size_t kThreads = 4;
/** Setup is repeated this many times per run; its median is reported. */
constexpr int kSetupSamples = 7;

/** Documented chain-vs-simulation modelling gap (docs/PERF.md), as
 *  measured by bench/markov_solver_accuracy at mu_s/mu_n = 0.1 only.
 *  Checked up to rho 0.5: at rho 0.8 the batch-means CI of a 100k-task
 *  run understates the spread of the mean delay (a seed lands 19% below
 *  the chain with a +-8% CI). */
constexpr double kExactBand = 0.09;
constexpr double kExactBandRatio = 0.1;
constexpr double kExactBandMaxRho = 0.5;
/** Little's-law slack for finite-window edge effects. */
constexpr double kLittleSlack = 0.08;
/** Relative floor on the certified bound, for solver round-off. */
constexpr double kRefFloor = 1e-6;

std::string
fmt(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
}

std::string
bits(double v)
{
    return std::to_string(std::bit_cast<std::uint64_t>(v));
}

double
toSeconds(const timeval &tv)
{
    return static_cast<double>(tv.tv_sec) +
           1e-6 * static_cast<double>(tv.tv_usec);
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return toSeconds(ru.ru_utime) + toSeconds(ru.ru_stime);
}

std::string
cellName(const std::string &config, double ratio, double rho,
         std::size_t shards = 1)
{
    std::string name = config + " ratio=" + fmt(ratio) + " rho=" + fmt(rho);
    if (shards > 1)
        name += " shards=" + std::to_string(shards);
    return name;
}

/**
 * Repeat passes of @p body within @p opt.seconds: another pass starts
 * only while the longest pass so far still fits in the budget (at least
 * one pass runs).  A traced run makes its first pass untraced -- the
 * baseline of the tracing overhead -- and traces every later one (at
 * least one).  A body may set Pass::wallSeconds itself when its fixed
 * work is only part of the pass; otherwise the whole pass is timed.
 * Every cell must reproduce its first-pass outputs bit for bit.
 */
template <typename Body>
void
runPasses(const Options &opt, Tracer &tracer, RunDoc &doc, Body &&body)
{
    const double start = nowSeconds();
    double longest = 0.0;
    do {
        Pass pass;
        pass.traced = opt.trace && !doc.passes.empty();
        tracer.setEnabled(pass.traced);
        pass.probes.push_back(hostProbe());
        const double t0 = nowSeconds();
        {
            SpanScope span(tracer, "pass");
            body(pass);
        }
        const double elapsed = nowSeconds() - t0;
        pass.probes.push_back(hostProbe());
        longest = std::max(longest, elapsed);
        if (pass.wallSeconds == 0.0)
            pass.wallSeconds = elapsed;
        doc.passes.push_back(std::move(pass));
    } while (nowSeconds() - start + longest <= opt.seconds ||
             (opt.trace && doc.passes.size() < 2));
    tracer.setEnabled(false);

    std::map<std::string, std::string> first;
    for (const Cell &cell : doc.passes.front().cells)
        first.emplace(cell.name, cell.signature);
    for (std::size_t p = 1; p < doc.passes.size(); ++p)
        for (Cell &cell : doc.passes[p].cells) {
            const auto it = first.find(cell.name);
            cell.check("repeat_identical",
                       it != first.end() && it->second == cell.signature,
                       "outputs differ from the first pass");
        }
}

/** Deterministic Fisher-Yates shuffle driven by @p seed. */
template <typename T>
void
shuffle(std::vector<T> &items, std::uint64_t seed)
{
    std::uint64_t state = seed;
    for (std::size_t i = items.size(); i > 1; --i) {
        const std::size_t j = static_cast<std::size_t>(splitmix64(state) % i);
        std::swap(items[i - 1], items[j]);
    }
}

// ----------------------------------------------------------------------
// Simulation workloads
// ----------------------------------------------------------------------

struct SimSpec
{
    std::string config;
    double ratio = 0.1;
    double rho = 0.5;
    std::uint64_t tasks = 0;
    std::size_t shards = 1;
    std::uint64_t seed = 1;
};

workload::WorkloadParams
simWorkload(const SystemConfig &cfg, const SimSpec &spec)
{
    workload::WorkloadParams wl;
    wl.muN = kMuN;
    wl.muS = kMuN * spec.ratio;
    wl.lambda = lambdaForRho(cfg, spec.rho, wl.muN, wl.muS);
    return wl;
}

SimOptions
simOptions(const SimSpec &spec)
{
    SimOptions o;
    o.seed = spec.seed;
    o.measureTasks = spec.tasks;
    o.warmupTasks = spec.tasks / 10;
    o.shards = spec.shards;
    return o;
}

/**
 * Set-up of a simulation workload: parse and construct (then destroy)
 * every serial system, @p rounds times per sample; the per-round time
 * of each sample is recorded.
 */
void
measureSimSetup(const std::vector<SimSpec> &specs, int rounds, RunDoc &doc)
{
    for (int s = 0; s < kSetupSamples; ++s) {
        doc.setupProbes.push_back(hostProbe());
        const double t0 = nowSeconds();
        for (int r = 0; r < rounds; ++r)
            for (const SimSpec &spec : specs) {
                if (spec.shards > 1)
                    continue;
                const SystemConfig cfg = SystemConfig::parse(spec.config);
                const auto sys = makeSystem(cfg, simWorkload(cfg, spec),
                                            simOptions(spec));
                if (sys->processors() != cfg.processors)
                    throw std::runtime_error("makeSystem: bad system");
            }
        doc.setupSeconds.push_back((nowSeconds() - t0) / rounds);
    }
    doc.setupProbes.push_back(hostProbe());
}

/** Normalized delay and its CI half-width, for cross-run comparison. */
struct SimOutcome
{
    double delay = 0.0;
    double halfWidth = 0.0;
};

/** Run one simulation cell and apply the per-cell checks. */
std::pair<Cell, SimOutcome>
runSimCell(const SimSpec &spec, const References &refs, Tracer &tracer,
           common::Executor *pool, Pass &pass)
{
    const SystemConfig cfg = SystemConfig::parse(spec.config);
    const workload::WorkloadParams wl = simWorkload(cfg, spec);
    const SimOptions opts = simOptions(spec);

    Cell cell;
    cell.name = cellName(spec.config, spec.ratio, spec.rho, spec.shards);
    cell.kind = spec.shards > 1 ? "sharded" : "sim";
    cell.omega = cfg.network == NetworkClass::Omega;

    SimResult res;
    const double t0 = nowSeconds();
    const double cpu0 = cpuSeconds();
    {
        SpanScope span(tracer, "cell", cell.name);
        if (spec.shards > 1) {
            SpanScope call(tracer, "rsin.simulate", cell.name);
            res = simulate(cfg, wl, opts, {}, pool);
        } else {
            std::unique_ptr<SystemSimulation> sys;
            {
                SpanScope call(tracer, "rsin.makeSystem", cell.name);
                sys = makeSystem(cfg, wl, opts);
            }
            SpanScope call(tracer, "rsin.run", cell.name);
            res = sys->run();
        }
    }
    cell.wallSeconds = nowSeconds() - t0;
    if (spec.shards > 1) {
        pass.values["exec.cpu_s"] += cpuSeconds() - cpu0;
        pass.values["exec.wall_s"] += cell.wallSeconds;
        pass.values["exec.threads"] = static_cast<double>(kThreads);
    }

    cell.completedTasks = res.completedTasks;
    cell.fired = res.kernel.fired;
    cell.scheduled = res.kernel.scheduled;
    cell.cancelled = res.kernel.cancelled;
    cell.arenaBytes = res.kernel.arenaBytes;
    cell.rejections = res.rejections;
    cell.routingAttempts = res.meanRoutingAttempts;
    cell.boxesTraversed = res.meanBoxesTraversed;
    cell.signature = bits(res.meanDelay) + ":" + bits(res.timeAvgQueue) +
                     ":" + bits(res.delayHalfWidth) + ":" +
                     std::to_string(res.kernel.fired) + ":" +
                     std::to_string(res.completedTasks);

    cell.check("ok_full_quota",
               res.ok() && res.countedTasks == spec.tasks,
               std::string("status ") + toString(res.status) + ", " +
                   std::to_string(res.countedTasks) + "/" +
                   std::to_string(spec.tasks) + " tasks");

    // Little's law: E[Nq] = p * lambda * d, within the delay CI plus a
    // finite-window slack.
    const double rate = static_cast<double>(cfg.processors) * wl.lambda;
    const double little = rate * res.meanDelay;
    cell.check("littles_law",
               std::abs(res.timeAvgQueue - little) <=
                   kLittleSlack * little + rate * res.delayHalfWidth,
               "Nq " + fmt(res.timeAvgQueue) + " vs p*lambda*d " +
                   fmt(little));

    const SimOutcome outcome{res.normalizedDelay,
                             res.delayHalfWidth * wl.muS};
    const auto ref =
        refs.find(referenceKey(spec.config, spec.ratio, spec.rho));
    if (spec.ratio == kExactBandRatio && spec.rho <= kExactBandMaxRho &&
        ref != refs.end() && ref->second.stable) {
        const double exact = ref->second.normalizedDelay;
        cell.check("agrees_with_exact_chain",
                   std::abs(outcome.delay - exact) <=
                       kExactBand * exact + outcome.halfWidth,
                   "sim " + fmt(outcome.delay) + " +- " +
                       fmt(outcome.halfWidth) + " vs exact " + fmt(exact));
    }
    return {std::move(cell), outcome};
}

/**
 * Shared driver of the simulation workloads.  Sharded specs must come
 * after their serial twins, which they are checked against.
 */
void
runSimWorkload(const Options &opt, const References &refs, Tracer &tracer,
               RunDoc &doc, const std::vector<SimSpec> &specs,
               int setupRounds)
{
    measureSimSetup(specs, setupRounds, doc);
    const bool anySharded =
        std::any_of(specs.begin(), specs.end(),
                    [](const SimSpec &s) { return s.shards > 1; });
    std::unique_ptr<exec::ThreadPool> pool;
    if (anySharded)
        pool = std::make_unique<exec::ThreadPool>(kThreads);

    runPasses(opt, tracer, doc, [&](Pass &pass) {
        std::map<std::string, SimOutcome> serial;
        for (const SimSpec &spec : specs) {
            pass.probes.push_back(hostProbe());
            auto [cell, outcome] =
                runSimCell(spec, refs, tracer, pool.get(), pass);
            if (spec.shards == 1) {
                serial.emplace(cell.name, outcome);
            } else {
                const auto twin = serial.find(
                    cellName(spec.config, spec.ratio, spec.rho));
                const bool found = twin != serial.end();
                cell.check("agrees_with_serial",
                           found && std::abs(outcome.delay -
                                             twin->second.delay) <=
                                        outcome.halfWidth +
                                            twin->second.halfWidth,
                           found ? "sharded " + fmt(outcome.delay) +
                                       " vs serial " +
                                       fmt(twin->second.delay)
                                 : "no serial twin");
            }
            pass.cells.push_back(std::move(cell));
        }
    });
}

// ----------------------------------------------------------------------
// Exact chains
// ----------------------------------------------------------------------

struct ExactSpec
{
    std::string config;
    double ratio = 0.1;
    double rho = 0.5;
};

std::vector<ExactSpec>
exactSpecs()
{
    std::vector<ExactSpec> specs;
    // 70-phase k = 4 shapes: dense censored path, full grid, both ratios.
    for (const char *config : {"16/4x4x4 XBAR/2", "16/4x4x4 OMEGA/2"})
        for (double ratio : {0.1, 10.0}) {
            for (int i = 1; i <= 9; ++i)
                specs.push_back({config, ratio, 0.1 * i});
            specs.push_back({config, ratio, 0.95});
        }
    // 495-phase k = 8 shapes: sparse GMRES path.  rho >= 0.6 costs a
    // second to tens of seconds per cell and stays out, so that a run
    // repeats the pass often enough to be steady.
    for (const char *config : {"16/2x8x8 XBAR/2", "16/2x8x8 OMEGA/2"})
        for (int i = 1; i <= 5; ++i)
            specs.push_back({config, 0.1, 0.1 * i});
    return specs;
}

/** Chain parameters exactly as rsin::xbarExact / omegaExact build them. */
markov::NetChainParams
chainParams(const SystemConfig &cfg, double ratio, double rho)
{
    markov::NetChainParams prm;
    prm.processors = cfg.inputsPerNet;
    prm.buses = cfg.outputsPerNet;
    prm.resources = cfg.resourcesPerPort;
    prm.muN = kMuN;
    prm.muS = kMuN * ratio;
    prm.lambda = lambdaForRho(cfg, rho, prm.muN, prm.muS);
    if (cfg.network == NetworkClass::Omega)
        prm.linkConflict = omegaLinkConflict(cfg.inputsPerNet);
    return prm;
}

std::unique_ptr<markov::XbarChainModel>
chainModel(const SystemConfig &cfg, const markov::NetChainParams &prm)
{
    if (cfg.network == NetworkClass::Omega)
        return std::make_unique<markov::OmegaChainModel>(prm);
    return std::make_unique<markov::XbarChainModel>(prm);
}

markov::SbusSolution
solveExact(const SystemConfig &cfg, double ratio, double rho)
{
    const double muS = kMuN * ratio;
    const double lambda = lambdaForRho(cfg, rho, kMuN, muS);
    return cfg.network == NetworkClass::Omega
               ? omegaExact(cfg, lambda, kMuN, muS)
               : xbarExact(cfg, lambda, kMuN, muS);
}

/**
 * The traced split of one exact cell: the chain model and the
 * stationary solve called separately, which must reproduce the
 * rsin-level answer bit for bit.
 */
void
splitExactCell(const SystemConfig &cfg, const ExactSpec &spec,
               const markov::SbusSolution &sol, Tracer &tracer, Cell &cell)
{
    SpanScope span(tracer, "check.markov_split", cell.name);
    const markov::NetChainParams prm =
        chainParams(cfg, spec.ratio, spec.rho);
    std::unique_ptr<markov::XbarChainModel> model;
    {
        SpanScope call(tracer, "markov.buildModel", cell.name);
        model = chainModel(cfg, prm);
    }
    markov::LdQbdResult result;
    {
        SpanScope call(tracer, "markov.solveStationary", cell.name);
        result = markov::solveStationary(*model);
    }
    markov::SbusSolution split;
    {
        SpanScope call(tracer, "markov.chainSolution", cell.name);
        split = markov::chainSolution(*model, result);
    }
    cell.phases = model->phases();
    cell.sparse = result.backend != markov::LdQbdBackend::DenseCensored;
    cell.check("markov_split_bit_identical",
               bits(split.normalizedDelay) == bits(sol.normalizedDelay) &&
                   bits(split.queueingDelay) == bits(sol.queueingDelay),
               "split " + fmt(split.normalizedDelay) + " vs rsin " +
                   fmt(sol.normalizedDelay));
}

Cell
runExactCell(const ExactSpec &spec, const References &refs,
             Tracer &tracer, bool split)
{
    const SystemConfig cfg = SystemConfig::parse(spec.config);
    Cell cell;
    cell.name = cellName(spec.config, spec.ratio, spec.rho);
    cell.kind = "exact";

    markov::SbusSolution sol;
    const double t0 = nowSeconds();
    {
        SpanScope span(tracer, "cell", cell.name);
        SpanScope call(tracer,
                       cfg.network == NetworkClass::Omega
                           ? "rsin.omegaExact"
                           : "rsin.xbarExact",
                       cell.name);
        sol = solveExact(cfg, spec.ratio, spec.rho);
    }
    cell.wallSeconds = nowSeconds() - t0;
    cell.phases = markov::netChainPhaseCount(
        cfg.inputsPerNet, cfg.outputsPerNet, cfg.resourcesPerPort);
    cell.levelsUsed = sol.levelsUsed;
    cell.truncationBound = sol.truncationBound;
    cell.signature = bits(sol.normalizedDelay) + ":" +
                     bits(sol.truncationBound) + ":" +
                     std::to_string(sol.levelsUsed);

    const auto ref =
        refs.find(referenceKey(spec.config, spec.ratio, spec.rho));
    if (ref == refs.end()) {
        cell.check("matches_reference", false, "no committed reference");
    } else if (!ref->second.stable) {
        cell.check("matches_reference", !sol.stable,
                   "reference is unstable, solve gave " +
                       fmt(sol.normalizedDelay));
    } else {
        const double want = ref->second.normalizedDelay;
        const double tol =
            std::max(sol.truncationBound + ref->second.truncationBound,
                     kRefFloor) *
            std::abs(want);
        cell.check("matches_reference",
                   sol.stable &&
                       std::abs(sol.normalizedDelay - want) <= tol,
                   "solve " + fmt(sol.normalizedDelay) + " vs reference " +
                       fmt(want) + " (tol " + fmt(tol) + ")");
    }
    if (split)
        splitExactCell(cfg, spec, sol, tracer, cell);
    return cell;
}

// ----------------------------------------------------------------------
// Campaign
// ----------------------------------------------------------------------

/** The campaign matrix, trimmed from the paper grid to run in seconds. */
CampaignSpec
campaignSpec(std::uint64_t seed)
{
    CampaignSpec spec;
    for (const char *text : {"16/16x1x1 SBUS/3", "16/4x4x4 OMEGA/2",
                             "16/2x8x8 XBAR/2", "16/1x16x16 OMEGA/2"})
        spec.configs.push_back(SystemConfig::parse(text));
    spec.ratios = {0.1, 10.0};
    spec.rhoMin = 0.1;
    spec.rhoMax = 0.3;
    spec.rhoSteps = 3;
    spec.tasks = 40000;
    spec.replications = 2;
    spec.seed = seed;
    spec.muN = kMuN;
    spec.analytic = true;
    return spec;
}

std::vector<std::string>
campaignArgs(const Options &opt, const CampaignSpec &spec,
             const std::string &ledger)
{
    std::string configs, ratios;
    for (const SystemConfig &cfg : spec.configs)
        configs += (configs.empty() ? "" : ";") + cfg.str();
    for (double ratio : spec.ratios)
        ratios += (ratios.empty() ? "" : ",") + fmt(ratio);
    return {opt.campaignBin,
            configs,
            "--ledger",
            ledger,
            "--ratios",
            ratios,
            "--rho-min",
            fmt(spec.rhoMin),
            "--rho-max",
            fmt(spec.rhoMax),
            "--steps",
            std::to_string(spec.rhoSteps),
            "--replications",
            std::to_string(spec.replications),
            "--tasks",
            std::to_string(spec.tasks),
            "--seed",
            std::to_string(spec.seed),
            "--jobs",
            std::to_string(kThreads)};
}

struct ChildResult
{
    int exitCode = -1;
    double wallSeconds = 0.0;
    double cpuSeconds = 0.0;
    double peakRssMb = 0.0;
    std::string output;
};

/** Spawn @p argv with stdout+stderr captured in @p logPath and wait. */
ChildResult
runChild(const std::vector<std::string> &argv, const std::string &logPath)
{
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, logPath.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_adddup2(&actions, 1, 2);
    std::vector<char *> args;
    for (const std::string &a : argv)
        args.push_back(const_cast<char *>(a.c_str()));
    args.push_back(nullptr);

    ChildResult out;
    pid_t pid = 0;
    const double t0 = nowSeconds();
    const int rc = posix_spawn(&pid, argv[0].c_str(), &actions, nullptr,
                               args.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0)
        throw std::runtime_error("cannot spawn " + argv[0]);
    int status = 0;
    rusage ru{};
    while (wait4(pid, &status, 0, &ru) < 0)
        if (errno != EINTR)
            throw std::runtime_error("wait4 failed");
    out.wallSeconds = nowSeconds() - t0;
    out.exitCode = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
    out.cpuSeconds = toSeconds(ru.ru_utime) + toSeconds(ru.ru_stime);
    out.peakRssMb = static_cast<double>(ru.ru_maxrss) / 1024.0;
    std::ifstream in(logPath);
    std::stringstream ss;
    ss << in.rdbuf();
    out.output = ss.str();
    return out;
}

std::uintmax_t
treeBytes(const std::string &dir)
{
    std::uintmax_t bytes = 0;
    for (const auto &entry : fs::recursive_directory_iterator(dir))
        if (entry.is_regular_file())
            bytes += entry.file_size();
    return bytes;
}

std::size_t
countLines(const std::string &path)
{
    std::ifstream in(path);
    std::size_t n = 0;
    std::string line;
    while (std::getline(in, line))
        ++n;
    return n;
}

/** Analytic answer for a campaign cell through the public API. */
markov::SbusSolution
solveCampaignCell(const CampaignSpec &spec, const CampaignCell &cell)
{
    const SystemConfig &cfg = spec.configs[cell.configIndex];
    const double muS = spec.muN * cell.ratio;
    if (cfg.network == NetworkClass::SingleBus)
        return analyzeSbus(cfg, cell.lambda, spec.muN, muS);
    if (xbarExactInRange(cfg))
        return xbarExact(cfg, cell.lambda, spec.muN, muS);
    return omegaExact(cfg, cell.lambda, spec.muN, muS);
}

/** Turn the finished ledger into checked cells. */
void
checkLedger(const CampaignSpec &spec, const obs::LedgerReplay &replay,
            Pass &pass)
{
    for (const CampaignCell &planned : planCampaign(spec)) {
        Cell cell;
        cell.name = planned.key;
        cell.kind = planned.analytic ? "check" : "campaign";
        const auto it = replay.entries.find(planned.key);
        if (it == replay.entries.end()) {
            cell.check("in_ledger", false, "missing from the ledger");
            pass.cells.push_back(std::move(cell));
            continue;
        }
        const obs::RunRecord &rec = it->second.record;
        const SimResult &res = rec.result;
        cell.signature = bits(res.normalizedDelay);
        if (planned.analytic) {
            cell.check("analytic_ok", res.status == RunStatus::Ok,
                       toString(res.status));
        } else {
            cell.wallSeconds = rec.wallSeconds;
            cell.completedTasks = res.completedTasks;
            cell.fired = res.kernel.fired;
            cell.scheduled = res.kernel.scheduled;
            cell.cancelled = res.kernel.cancelled;
            cell.arenaBytes = res.kernel.arenaBytes;
            cell.rejections = res.rejections;
            cell.routingAttempts = res.meanRoutingAttempts;
            cell.boxesTraversed = res.meanBoxesTraversed;
            cell.omega = spec.configs[planned.configIndex].network ==
                         NetworkClass::Omega;
            cell.check("ok_full_quota",
                       res.ok() && res.countedTasks == spec.tasks,
                       toString(res.status));
            const double rate =
                static_cast<double>(
                    spec.configs[planned.configIndex].processors) *
                planned.lambda;
            const double little = rate * res.meanDelay;
            cell.check("littles_law",
                       std::abs(res.timeAvgQueue - little) <=
                           kLittleSlack * little +
                               rate * res.delayHalfWidth,
                       "Nq " + fmt(res.timeAvgQueue) + " vs " +
                           fmt(little));
        }
        pass.cells.push_back(std::move(cell));
    }
}

/**
 * The persisted analytic cache must serve every analytic cell of the
 * campaign with the ledger's exact value.  Runs on the process-wide
 * cache the public API uses, reloaded from the campaign's file.
 */
void
checkPersistedCache(const CampaignSpec &spec, const std::string &path,
                    const obs::LedgerReplay &replay, Tracer &tracer,
                    Pass &pass)
{
    AnalysisCache &cache = AnalysisCache::global();
    cache.clear();
    {
        SpanScope call(tracer, "rsin.AnalysisCache.load");
        cache.load(path);
    }
    Cell cell;
    cell.name = "persisted analysis cache";
    cell.kind = "check";
    std::size_t mismatches = 0;
    for (const CampaignCell &planned : planCampaign(spec)) {
        if (!planned.analytic)
            continue;
        const markov::SbusSolution sol = solveCampaignCell(spec, planned);
        const auto it = replay.entries.find(planned.key);
        if (it == replay.entries.end() ||
            bits(it->second.record.result.normalizedDelay) !=
                bits(sol.normalizedDelay))
            ++mismatches;
    }
    const AnalysisCache::Stats stats = cache.stats();
    pass.values["cache.hits"] = static_cast<double>(stats.hits);
    pass.values["cache.misses"] = static_cast<double>(stats.misses);
    pass.values["cache.waits"] = static_cast<double>(stats.waits);
    cell.check("serves_every_analytic_cell",
               stats.misses == 0 && mismatches == 0,
               std::to_string(stats.misses) + " misses, " +
                   std::to_string(mismatches) + " values differ");
    cache.clear();
    pass.cells.push_back(std::move(cell));
}

} // namespace

std::string
referenceKey(const std::string &config, double ratio, double rho)
{
    return cellName(config, ratio, rho);
}

void
runSimPaper16(const Options &opt, const References &refs, Tracer &tracer,
              RunDoc &doc)
{
    const std::vector<std::string> configs = {
        "16/1x16x16 OMEGA/2", "16/2x8x8 OMEGA/2", "16/1x16x16 XBAR/2",
        "16/4x4x4 XBAR/2"};
    const double ratios[] = {0.1, 10.0};
    // Four rho values make 32 cells, 8 per config, so the tail rank
    // (the 11th slowest) falls inside one config's group instead of on
    // the boundary between two, where it would jump between them.
    const double rhos[] = {0.2, 0.4, 0.6, 0.8};
    std::vector<SimSpec> specs;
    for (std::size_t c = 0; c < configs.size(); ++c)
        for (std::size_t r = 0; r < std::size(ratios); ++r)
            for (std::size_t k = 0; k < std::size(rhos); ++k) {
                SimSpec spec;
                spec.config = configs[c];
                spec.ratio = ratios[r];
                spec.rho = rhos[k];
                spec.tasks = 100000;
                spec.seed = mixSeed(opt.seed, c, r, k);
                specs.push_back(spec);
            }
    runSimWorkload(opt, refs, tracer, doc, specs, 200);
}

void
runSimLarge(const Options &opt, const References &refs, Tracer &tracer,
            RunDoc &doc)
{
    struct Large
    {
        const char *config;
        std::uint64_t tasks;
        bool shardable;
    };
    const Large cells[] = {{"1024/64x16x16 OMEGA/2", 30000, true},
                           {"1024/64x16x16 XBAR/2", 30000, true},
                           {"1024/1x1024x1024 OMEGA/2", 6000, false}};
    std::vector<SimSpec> specs;
    for (std::size_t i = 0; i < std::size(cells); ++i) {
        SimSpec spec;
        spec.config = cells[i].config;
        spec.ratio = 0.1;
        spec.rho = 0.7;
        spec.tasks = cells[i].tasks;
        spec.seed = mixSeed(opt.seed, i, 0, 0);
        specs.push_back(spec);
    }
    for (std::size_t i = 0; i < std::size(cells); ++i)
        if (cells[i].shardable) {
            SimSpec spec = specs[i];
            spec.shards = kThreads;
            specs.push_back(spec);
        }
    runSimWorkload(opt, refs, tracer, doc, specs, 1);
}

void
runExactChains(const Options &opt, const References &refs,
               Tracer &tracer, RunDoc &doc)
{
    // The chains are deterministic: the seed only orders the cells.
    std::vector<ExactSpec> specs = exactSpecs();
    shuffle(specs, opt.seed);

    // Set-up: build every chain model (the phase-space enumeration),
    // kSetupRounds times per sample; the per-round time is recorded.
    constexpr int kSetupRounds = 50;
    for (int s = 0; s < kSetupSamples; ++s) {
        doc.setupProbes.push_back(hostProbe());
        const double t0 = nowSeconds();
        std::size_t phases = 0;
        for (int r = 0; r < kSetupRounds; ++r)
            for (const ExactSpec &spec : specs) {
                const SystemConfig cfg = SystemConfig::parse(spec.config);
                phases += chainModel(cfg, chainParams(cfg, spec.ratio,
                                                      spec.rho))
                              ->phases();
            }
        if (phases == 0)
            throw std::runtime_error("exact_chains: empty chain models");
        doc.setupSeconds.push_back((nowSeconds() - t0) / kSetupRounds);
    }
    doc.setupProbes.push_back(hostProbe());

    runPasses(opt, tracer, doc, [&](Pass &pass) {
        // Cold cache: every cell is solved, none served from memory.
        AnalysisCache::global().clear();
        double solveWall = 0.0;
        for (const ExactSpec &spec : specs) {
            pass.probes.push_back(hostProbe());
            Cell cell = runExactCell(spec, refs, tracer, pass.traced);
            solveWall += cell.wallSeconds;
            pass.cells.push_back(std::move(cell));
        }
        const AnalysisCache::Stats stats = AnalysisCache::global().stats();
        pass.values["cache.hits"] = static_cast<double>(stats.hits);
        pass.values["cache.misses"] = static_cast<double>(stats.misses);
        pass.values["cache.waits"] = static_cast<double>(stats.waits);
        // The traced split re-solves every chain; it is checking work,
        // not part of the workload's fixed work.
        pass.wallSeconds = solveWall;
    });
    AnalysisCache::global().clear();
}

void
runCampaignMixed(const Options &opt, const References &, Tracer &tracer,
                 RunDoc &doc)
{
    const CampaignSpec spec = campaignSpec(opt.seed);
    const std::string canonical = canonicalSpec(spec);
    fs::create_directories(opt.workDir);
    std::string lastLedger;
    double childPeakRss = 0.0;

    runPasses(opt, tracer, doc, [&](Pass &pass) {
        const std::string ledger =
            opt.workDir + "/ledger-" + std::to_string(doc.passes.size());
        fs::remove_all(ledger);
        const std::vector<std::string> argv =
            campaignArgs(opt, spec, ledger);

        ChildResult run;
        {
            SpanScope span(tracer, "campaign.run");
            run = runChild(argv, ledger + ".log");
        }
        pass.wallSeconds = run.wallSeconds;
        pass.values["exec.cpu_s"] = run.cpuSeconds;
        pass.values["exec.wall_s"] = run.wallSeconds;
        pass.values["exec.threads"] = static_cast<double>(kThreads);
        childPeakRss = std::max(childPeakRss, run.peakRssMb);

        ChildResult resume;
        {
            SpanScope span(tracer, "campaign.resume");
            resume = runChild(argv, ledger + ".resume.log");
        }

        obs::LedgerReplay replay;
        {
            SpanScope span(tracer, "obs.replayLedger");
            replay = obs::replayLedger(ledger, canonical);
        }
        const std::string cachePath = ledger + "/analysis_cache.txt";
        pass.values["obs.ledger_bytes"] =
            static_cast<double>(treeBytes(ledger));
        // One header line, then one line per saved entry.
        const std::size_t lines = countLines(cachePath);
        pass.values["cache.entries_saved"] =
            static_cast<double>(lines > 0 ? lines - 1 : 0);

        checkLedger(spec, replay, pass);
        Cell ledgerCell;
        ledgerCell.name = "ledger";
        ledgerCell.kind = "check";
        const std::size_t planned = planCampaign(spec).size();
        ledgerCell.check("campaign_exit_0", run.exitCode == 0,
                         run.output);
        ledgerCell.check("replays_all_planned_cells",
                         replay.entries.size() == planned &&
                             replay.tornRecords == 0 &&
                             replay.openSegments == 0,
                         std::to_string(replay.entries.size()) + "/" +
                             std::to_string(planned) + " cells, " +
                             std::to_string(replay.tornRecords) + " torn");
        ledgerCell.check("resume_runs_zero_cells",
                         resume.exitCode == 0 &&
                             resume.output.find(" 0 to run") !=
                                 std::string::npos,
                         resume.output);
        pass.cells.push_back(std::move(ledgerCell));
        checkPersistedCache(spec, cachePath, replay, tracer, pass);

        if (!lastLedger.empty())
            fs::remove_all(lastLedger);
        lastLedger = ledger;
    });

    // Set-up: a resume pass against the finished ledger is the
    // campaign's fixed cost -- process start, planning, ledger and
    // cache load, replay -- with no cells to run.
    const std::vector<std::string> argv =
        campaignArgs(opt, spec, lastLedger);
    for (int s = 0; s < kSetupSamples; ++s) {
        const ChildResult resume = runChild(argv, lastLedger + ".setup.log");
        if (resume.exitCode != 0)
            throw std::runtime_error("campaign resume failed: " +
                                     resume.output);
        doc.setupSeconds.push_back(resume.wallSeconds);
    }
    fs::remove_all(opt.workDir);
    doc.peakRssMb = std::max(doc.peakRssMb, childPeakRss);
}

References
computeReferences()
{
    References refs;
    const auto add = [&refs](const std::string &config, double ratio,
                             double rho) {
        const SystemConfig cfg = SystemConfig::parse(config);
        const markov::SbusSolution sol = solveExact(cfg, ratio, rho);
        refs[referenceKey(config, ratio, rho)] = {
            sol.stable, sol.normalizedDelay, sol.truncationBound};
        std::fprintf(stderr, "reference %s: %.17g\n",
                     referenceKey(config, ratio, rho).c_str(),
                     sol.normalizedDelay);
    };
    // The exact_chains grid also holds every sim_paper16 cell the band
    // is checked on (ratio 0.1, rho 0.2 and 0.4).
    for (const ExactSpec &spec : exactSpecs())
        add(spec.config, spec.ratio, spec.rho);
    return refs;
}

} // namespace e2ebench
