#include "partitioned_run.hpp"

#include <algorithm>
#include <bit>
#include <compare>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/error.hpp"

namespace rsin {

namespace {

/** Order-preserving bit pattern of a non-negative event time. */
std::uint64_t
timeToBits(double time)
{
    RSIN_ASSERT(time >= 0.0, "timeToBits: negative event time");
    return std::bit_cast<std::uint64_t>(time);
}

/**
 * A position in the reconstructed global order of one window's events,
 * and the one definition of that order: time bits first
 * (order-preserving for non-negative times), then shard, then a
 * shard-local index that grows with the shard's event order -- an
 * event's position in its shard's window journal, or a record's
 * position in its log.  Within a shard this is exactly the serial
 * order; across shards it matches the serial order wherever timestamps
 * are distinct.  Kept to 16 bytes: the merge sorts one per record.
 */
struct MergeRef
{
    std::uint64_t timeBits = 0;
    std::uint32_t shard = 0;
    std::uint32_t index = 0;

    auto operator<=>(const MergeRef &) const = default;
};

/** The event that stops the run (its index is a journal position). */
using Cut = std::optional<MergeRef>;

/** Keep the earlier of @p cut and @p candidate. */
void
takeEarlier(Cut &cut, const MergeRef &candidate)
{
    if (!cut || candidate < *cut)
        cut = candidate;
}

/**
 * Is the event at @p at part of the run up to and including the cut
 * event?  The cut event's own records are included: the serial loop
 * finishes the stopping event before it checks the stop conditions.
 */
bool
included(const Cut &cut, const MergeRef &at)
{
    return !cut || at <= *cut;
}

/** One fired event: its time and the shard counters just after. */
struct JournalEntry
{
    std::uint64_t timeBits = 0;
    std::uint64_t scheduledAfter = 0;
};

/** One shard: its slice of the model and the current window's events. */
struct Shard
{
    ShardLog log;
    std::unique_ptr<SystemSimulation> system; ///< captures into log
    std::vector<JournalEntry> journal;
    des::KernelCounters base; ///< kernel counters as the window began
};

/**
 * The position of shard @p s's event with lifetime fired index
 * @p fired, at time bits @p timeBits, which must have fired in the
 * current window.
 */
MergeRef
eventAt(const std::vector<Shard> &shards, std::size_t s,
        std::uint64_t timeBits, std::uint64_t fired)
{
    const Shard &shard = shards[s];
    RSIN_ASSERT(fired > shard.base.fired &&
                    fired - shard.base.fired <= shard.journal.size(),
                "eventAt: event outside the current window");
    return {timeBits, static_cast<std::uint32_t>(s),
            static_cast<std::uint32_t>(fired - shard.base.fired - 1)};
}

/**
 * Fire @p shard's events up to and including @p horizon, journaling
 * each one, and stop as soon as the model parks the shard: the global
 * stop point then lies at or before the parking event.
 */
void
advanceShard(Shard &shard, double horizon)
{
    des::Simulator &sim = shard.system->partitionKernel();
    shard.journal.clear();
    shard.base = sim.counters();
    while (!shard.system->captureParked()) {
        const std::optional<double> next = sim.nextEventTime();
        if (!next || *next > horizon)
            return;
        sim.step();
        shard.journal.push_back({timeToBits(sim.now()), sim.scheduled()});
    }
}

/** Sorted global-order index over one record type of all shards. */
template <typename Records, typename BitsOf>
std::vector<MergeRef>
mergeOrder(const std::vector<Shard> &shards, Records records,
           BitsOf bitsOf)
{
    std::vector<MergeRef> order;
    std::size_t total = 0;
    for (const Shard &shard : shards)
        total += records(shard).size();
    order.reserve(total);
    for (std::size_t s = 0; s < shards.size(); ++s) {
        const auto &recs = records(shards[s]);
        for (std::size_t i = 0; i < recs.size(); ++i)
            order.push_back({bitsOf(recs[i]),
                             static_cast<std::uint32_t>(s),
                             static_cast<std::uint32_t>(i)});
    }
    std::sort(order.begin(), order.end());
    return order;
}

std::unique_ptr<SystemSimulation>
makeShardSystem(const SystemConfig &config,
                const workload::WorkloadParams &params,
                const SimOptions &options, const ModelOptions &model,
                const ShardContext &shard)
{
    switch (config.network) {
      case NetworkClass::SingleBus:
        return std::make_unique<CrossbarSystem>(
            config, params, options, XbarArbitration::FifoArrival, shard);
      case NetworkClass::Crossbar:
        return std::make_unique<CrossbarSystem>(
            config, params, options, model.xbarArbitration, shard);
      case NetworkClass::Omega:
      case NetworkClass::Cube:
        return std::make_unique<OmegaSystem>(config, params, options,
                                             model.omega, shard);
    }
    RSIN_PANIC("makeShardSystem: unknown network class");
}

/** Sum of all shards' lifetime kernel counters, as of now. */
des::KernelCounters
totals(const std::vector<Shard> &shards)
{
    des::KernelCounters sum;
    for (const Shard &shard : shards) {
        const des::KernelCounters c =
            shard.system->partitionKernel().counters();
        sum.scheduled += c.scheduled;
        sum.fired += c.fired;
        sum.arenaBytes += c.arenaBytes;
    }
    return sum;
}

/**
 * Exact cross-shard kernel counters as of the cut event: every shard
 * contributes the prefix of its window journal at or before the cut.
 * Window bases cover everything committed in earlier windows.
 */
des::KernelCounters
countersAtCut(const std::vector<Shard> &shards, const MergeRef &cut)
{
    des::KernelCounters sum;
    for (std::size_t s = 0; s < shards.size(); ++s) {
        const Shard &shard = shards[s];
        const std::vector<JournalEntry> &journal = shard.journal;
        const auto firstAfter = std::partition_point(
            journal.begin(), journal.end(), [&](const JournalEntry &e) {
                return MergeRef{e.timeBits, static_cast<std::uint32_t>(s),
                                static_cast<std::uint32_t>(
                                    &e - journal.data())} <= cut;
            });
        const auto count =
            static_cast<std::uint64_t>(firstAfter - journal.begin());
        sum.fired += shard.base.fired + count;
        sum.scheduled += count == 0 ? shard.base.scheduled
                                    : firstAfter[-1].scheduledAfter;
    }
    // Arena high-water marks are a property of the shards' lifetimes,
    // not of the cut; report their sum (the one counter a partitioned
    // run does not reproduce bit-for-bit).
    sum.arenaBytes = totals(shards).arenaBytes;
    return sum;
}

} // namespace

SimResult
runPartitioned(const SystemConfig &config,
               const workload::WorkloadParams &params,
               const SimOptions &options, const ModelOptions &model,
               const PartitionPlan &plan, common::Executor *executor)
{
    RSIN_REQUIRE(plan.shardCount() >= 2,
                 "runPartitioned: need at least two shards, the plan "
                 "has ", plan.shardCount());
    config.validate();

    // The paper's networks are independent, so the shards share no
    // model state and exchange no events: the only cross-shard
    // interaction is the global stop condition, which the merge below
    // reconstructs.
    const std::size_t shardCount = plan.shardCount();
    std::vector<Shard> shards(shardCount);
    for (std::size_t s = 0; s < shardCount; ++s) {
        const ShardBounds &bounds = plan.shards[s];
        SystemConfig shardConfig = config;
        shardConfig.networks = bounds.networks();
        shardConfig.processors = bounds.processors();
        shards[s].system = makeShardSystem(
            shardConfig, params, options, model,
            ShardContext{&shards[s].log, bounds.firstProcessor});
    }
    for (Shard &shard : shards)
        shard.system->primePartitionedRun();

    workload::MetricsCollector metrics(options.warmupTasks);
    TimeWeighted queueTrace;
    const auto finish = [&](bool saturated, double simulatedTime,
                            const des::KernelCounters &kernel) {
        SimResult result =
            assembleSimResult(metrics, queueTrace, saturated, options,
                              params, simulatedTime, kernel);
        result.shardsUsed = shardCount;
        return result;
    };
    const std::uint64_t quota =
        options.warmupTasks + options.measureTasks;
    std::int64_t globalQueued = 0;
    std::uint64_t cumFired = 0; ///< events committed in past windows

    // Degenerate stop conditions the serial loop hits before its first
    // step(): a zero quota or a zero event budget.
    if (quota == 0 || options.maxEvents == 0)
        return finish(false, 0.0, totals(shards));

    // Window sizing: aim for the full measurement quota in one or two
    // windows (aggregate completion rate ~= aggregate arrival rate for
    // a stable system), then adapt to the observed rate.
    const double aggregateRate =
        params.lambda * static_cast<double>(config.processors);
    double window = aggregateRate > 0.0
                        ? 1.25 * static_cast<double>(quota) /
                              aggregateRate
                        : 1.0;
    double horizon = 0.0;

    while (true) {
        horizon += window;
        if (executor != nullptr && executor->size() > 1) {
            executor->parallelFor(shardCount, [&](std::size_t s) {
                advanceShard(shards[s], horizon);
            });
        } else {
            for (Shard &shard : shards)
                advanceShard(shard, horizon);
        }

        // ---- locate the earliest stop candidate in this window ----
        Cut cut;

        // (a) The quota-th completion overall (earlier windows fed
        // fewer than the quota, or the run would have ended there).
        const std::vector<MergeRef> completionOrder = mergeOrder(
            shards,
            [](const Shard &shard) -> const auto & {
                return shard.log.completions;
            },
            [](const ShardLog::Completion &c) {
                return timeToBits(c.serviceEnd);
            });
        if (metrics.completed() + completionOrder.size() >= quota) {
            const MergeRef &ref =
                completionOrder[quota - metrics.completed() - 1];
            const ShardLog::Completion &c =
                shards[ref.shard].log.completions[ref.index];
            takeEarlier(cut, eventAt(shards, ref.shard, ref.timeBits,
                                     c.firedIndex));
        }

        // (b) Saturation: the first global queue-limit crossing, or
        // the earliest model-detected satEvent.
        Cut satCut;
        const std::vector<MergeRef> queueOrder = mergeOrder(
            shards,
            [](const Shard &shard) -> const auto & {
                return shard.log.queueChanges;
            },
            [](const ShardLog::QueueChange &q) {
                return timeToBits(q.time);
            });
        std::int64_t queued = globalQueued;
        for (const MergeRef &ref : queueOrder) {
            const ShardLog::QueueChange &q =
                shards[ref.shard].log.queueChanges[ref.index];
            queued += q.delta;
            if (q.delta > 0 &&
                queued > static_cast<std::int64_t>(
                             options.saturationQueueLimit)) {
                takeEarlier(satCut, eventAt(shards, ref.shard,
                                            ref.timeBits, q.firedIndex));
                break;
            }
        }
        for (std::size_t s = 0; s < shardCount; ++s)
            for (const ShardLog::Mark &mark : shards[s].log.satEvents)
                takeEarlier(satCut, eventAt(shards, s,
                                            timeToBits(mark.time),
                                            mark.firedIndex));
        if (satCut)
            takeEarlier(cut, *satCut);

        // (c) The maxEvents safety valve: the budget-exhausting event
        // in the merged journal order.
        std::uint64_t windowFired = 0;
        for (const Shard &shard : shards)
            windowFired += shard.journal.size();
        if (cumFired + windowFired >= options.maxEvents) {
            const std::vector<MergeRef> eventOrder = mergeOrder(
                shards,
                [](const Shard &shard) -> const auto & {
                    return shard.journal;
                },
                [](const JournalEntry &e) { return e.timeBits; });
            takeEarlier(cut, eventOrder[options.maxEvents - cumFired - 1]);
        }

        // ---- commit observations at or before the cut, in order ----
        for (const MergeRef &ref : completionOrder) {
            const ShardLog::Completion &c =
                shards[ref.shard].log.completions[ref.index];
            if (!included(cut, eventAt(shards, ref.shard, ref.timeBits,
                                       c.firedIndex)))
                continue;
            workload::Task task;
            task.processor = c.processor;
            task.arrival = c.arrival;
            task.transmitStart = c.transmitStart;
            task.serviceEnd = c.serviceEnd;
            task.routingAttempts = c.routingAttempts;
            task.boxesTraversed = c.boxesTraversed;
            metrics.taskCompleted(task);
        }
        for (const MergeRef &ref : queueOrder) {
            const ShardLog::QueueChange &q =
                shards[ref.shard].log.queueChanges[ref.index];
            if (!included(cut, eventAt(shards, ref.shard, ref.timeBits,
                                       q.firedIndex)))
                continue;
            globalQueued += q.delta;
            queueTrace.record(q.time,
                              static_cast<double>(globalQueued));
        }
        for (std::size_t s = 0; s < shardCount; ++s)
            for (const ShardLog::Mark &mark : shards[s].log.rejections)
                if (included(cut, eventAt(shards, s,
                                          timeToBits(mark.time),
                                          mark.firedIndex)))
                    metrics.taskRejected();

        if (cut)
            return finish(satCut && *satCut == *cut,
                          std::bit_cast<double>(cut->timeBits),
                          countersAtCut(shards, *cut));

        cumFired += windowFired;
        bool drained = true;
        double lastEventTime = 0.0;
        for (Shard &shard : shards) {
            shard.log.clear();
            des::Simulator &sim = shard.system->partitionKernel();
            // A parked shard's calendar is frozen, never drained.
            drained = drained && !shard.system->captureParked() &&
                      sim.pending() == 0;
            lastEventTime = std::max(lastEventTime, sim.now());
        }
        if (drained) {
            // Every calendar emptied (e.g. a zero-arrival workload):
            // the serial clock would rest at its last fired event.
            return finish(false, lastEventTime, totals(shards));
        }

        // Adapt the window to the observed completion rate.
        const std::uint64_t fed = metrics.completed();
        if (fed > 0) {
            const double rate = static_cast<double>(fed) / horizon;
            const double desired =
                1.25 * static_cast<double>(quota - fed) / rate;
            window = std::clamp(desired, window * 0.5, window * 4.0);
        } else {
            window *= 2.0;
        }
    }
}

} // namespace rsin
