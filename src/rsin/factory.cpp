#include "factory.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/contract.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"
#include "rsin/partitioned_run.hpp"

namespace rsin {

std::unique_ptr<SystemSimulation>
makeSystem(const SystemConfig &config,
           const workload::WorkloadParams &params,
           const SimOptions &options, const ModelOptions &model)
{
    config.validate();
    switch (config.network) {
      case NetworkClass::SingleBus:
        return std::make_unique<CrossbarSystem>(
            config, params, options, XbarArbitration::FifoArrival);
      case NetworkClass::Crossbar:
        return std::make_unique<CrossbarSystem>(config, params, options,
                                                model.xbarArbitration);
      case NetworkClass::Omega:
      case NetworkClass::Cube:
        return std::make_unique<OmegaSystem>(config, params, options,
                                             model.omega);
    }
    RSIN_PANIC("makeSystem: unknown network class");
}

SimResult
simulate(const SystemConfig &config, const workload::WorkloadParams &params,
         const SimOptions &options, const ModelOptions &model,
         common::Executor *executor)
{
    if (options.shards > 1) {
        const PartitionPlan plan = planPartition(config, options.shards);
        if (plan.shardCount() >= 2)
            return runPartitioned(config, params, options, model, plan,
                                  executor);
    }
    // Unsplittable (single network) or at most one shard requested:
    // the serial calendar, the oracle every partitioned run is checked
    // against.
    return makeSystem(config, params, options, model)->run();
}

std::vector<std::uint64_t>
replicationSeeds(std::uint64_t baseSeed, std::size_t replications)
{
    std::vector<std::uint64_t> seeds(replications);
    Rng seeder(baseSeed);
    for (auto &seed : seeds)
        seed = seeder.next();
#if RSIN_CONTRACTS_ENABLED
    {
        // Replications must be statistically independent: a repeated
        // seed silently halves the evidence behind the CI half-width.
        std::vector<std::uint64_t> sorted = seeds;
        std::sort(sorted.begin(), sorted.end());
        RSIN_INVARIANT(std::adjacent_find(sorted.begin(),
                                          sorted.end()) == sorted.end(),
                       "replication seed collision for base seed ",
                       baseSeed);
    }
#endif
    return seeds;
}

SimResult
aggregateReplications(std::vector<SimResult> runs,
                      const workload::WorkloadParams &params)
{
    RSIN_REQUIRE(!runs.empty(),
                 "aggregateReplications: need at least one run");
    // Only Ok replications contribute estimates.  Saturated runs sit
    // beyond the knee, truncated runs never reached steady state, and
    // no-data runs carry NaN sentinels that would poison both the
    // accumulator and the sort below.
    std::size_t saturated = 0;
    Accumulator delays;
    std::vector<SimResult> usable, partial;
    for (const auto &run : runs) {
        switch (run.status) {
          case RunStatus::Saturated:
            ++saturated;
            break;
          case RunStatus::Ok:
            // NaN discipline: an Ok run promises finite estimates; a
            // NaN here would poison the accumulator and make the sort
            // below schedule-dependent.
            RSIN_INVARIANT(std::isfinite(run.meanDelay) &&
                               run.countedTasks > 0,
                           "RunStatus::Ok with untrustworthy "
                           "estimates: meanDelay ", run.meanDelay,
                           ", counted ", run.countedTasks);
            usable.push_back(run);
            delays.add(run.meanDelay);
            break;
          case RunStatus::Truncated:
            partial.push_back(run);
            break;
          case RunStatus::NoData:
            break;
        }
    }
    const auto byDelay = [](const SimResult &a, const SimResult &b) {
        return a.meanDelay < b.meanDelay;
    };
    SimResult result;
    if (!usable.empty()) {
        // Ordered reduction: the median is taken over a sorted copy,
        // so the aggregate is a function of the run *set*, never of
        // the (possibly pool-scheduled) completion order.
        std::sort(usable.begin(), usable.end(), byDelay);
        RSIN_INVARIANT(std::is_sorted(usable.begin(), usable.end(),
                                      byDelay),
                       "replication reduction lost its ordering");
        result = usable[usable.size() / 2];
    } else if (!partial.empty()) {
        // Best effort: the median truncated run, still flagged so no
        // consumer mistakes it for a converged estimate.
        std::sort(partial.begin(), partial.end(), byDelay);
        result = partial[partial.size() / 2];
        result.status = RunStatus::Truncated;
    } else {
        // Every replication saturated or produced nothing.  Build the
        // aggregate from scratch: copying runs.front() here leaked one
        // tainted run's residual point estimates (a saturated run's
        // pre-abort tallies, or zeros) into fields a JSON/CSV consumer
        // could read as real numbers despite the status.  Estimates
        // get the NaN sentinel NoData runs already carry; only the
        // activity counters -- which are facts, not estimates -- are
        // summed across the replications.
        const double nan = std::numeric_limits<double>::quiet_NaN();
        result.meanDelay = nan;
        result.delayHalfWidth = nan;
        result.normalizedDelay = nan;
        result.meanResponse = nan;
        result.meanRoutingAttempts = nan;
        result.meanBoxesTraversed = nan;
        result.delayImbalance = nan;
        result.timeAvgQueue = nan;
        result.delayP95 = nan;
        result.delayP99 = nan;
        result.fractionNoWait = nan;
        for (const auto &run : runs) {
            result.completedTasks += run.completedTasks;
            result.countedTasks += run.countedTasks;
            result.rejections += run.rejections;
            result.simulatedTime =
                std::max(result.simulatedTime, run.simulatedTime);
            result.kernel.scheduled += run.kernel.scheduled;
            result.kernel.fired += run.kernel.fired;
            result.kernel.cancelled += run.kernel.cancelled;
            result.kernel.arenaBytes =
                std::max(result.kernel.arenaBytes,
                         run.kernel.arenaBytes);
        }
        result.shardsUsed = runs.front().shardsUsed;
        result.status = saturated > 0 ? RunStatus::Saturated
                                      : RunStatus::NoData;
    }
    // A majority of saturated replications means the point is beyond
    // the knee: report it as saturated.
    if (saturated * 2 > runs.size())
        result.status = RunStatus::Saturated;
    result.saturated = result.status == RunStatus::Saturated;
    if (delays.count() >= 2) {
        result.meanDelay = delays.mean();
        result.normalizedDelay = delays.mean() * params.muS;
        result.delayHalfWidth =
            std::max(result.delayHalfWidth, delays.halfWidth());
    }
    return result;
}

SimResult
simulateReplicated(const SystemConfig &config,
                   const workload::WorkloadParams &params,
                   const SimOptions &options, std::size_t replications,
                   const ModelOptions &model)
{
    RSIN_REQUIRE(replications >= 1,
                 "simulateReplicated: need at least one replication");
    const auto seeds = replicationSeeds(options.seed, replications);
    std::vector<SimResult> runs;
    runs.reserve(replications);
    for (const std::uint64_t seed : seeds) {
        SimOptions opts = options;
        opts.seed = seed;
        runs.push_back(simulate(config, params, opts, model));
    }
    return aggregateReplications(std::move(runs), params);
}

} // namespace rsin
