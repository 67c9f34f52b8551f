#pragma once

/**
 * @file
 * Partitioning of an RSIN system model across shards.
 *
 * All three network classes of the paper are unions of i identical
 * independent cells (a bus partition, a crossbar, an omega net), and
 * assumption (c) -- zero propagation delay with instant status
 * broadcast -- makes every event *within* a cell instantaneously
 * visible to the whole cell, so a cell cannot be split.  The
 * partitioning unit is therefore whole networks: planPartition assigns
 * each shard a contiguous block of networks together with their
 * processors and resource pools, and no event ever crosses a shard.
 *
 * A shard runs the ordinary serial model on its slice and, instead of
 * reducing observations locally, appends them to a ShardLog.  The
 * merge driver (partitioned_run.hpp) k-way merges the logs by
 * timestamp into the exact serial reduction order and feeds one
 * global MetricsCollector -- which is how the partitioned mode stays
 * bit-identical to the serial oracle.
 */

#include <cstddef>
#include <cstdint>
#include <vector>

#include "rsin/config.hpp"

namespace rsin {

/** One shard's slice of the system. */
struct ShardBounds
{
    std::size_t firstNetwork = 0; ///< network range [first, last)
    std::size_t lastNetwork = 0;
    std::size_t firstProcessor = 0; ///< processor range [first, last)
    std::size_t lastProcessor = 0;

    std::size_t networks() const { return lastNetwork - firstNetwork; }
    std::size_t processors() const
    {
        return lastProcessor - firstProcessor;
    }
};

/** Full partitioning decision for one run: two or more shards make a
 *  partitioned run, fewer mean "run serially". */
struct PartitionPlan
{
    std::vector<ShardBounds> shards;

    std::size_t shardCount() const { return shards.size(); }
};

/**
 * Split @p config into at most @p requestedShards shards.  Networks
 * are dealt out in contiguous, maximally balanced blocks; with fewer
 * networks than requested shards the plan shrinks to one shard per
 * network, and a single-network system (or requestedShards <= 1)
 * yields a plan with no shards.
 */
PartitionPlan planPartition(const SystemConfig &config,
                            std::size_t requestedShards);

/**
 * Raw per-shard observation log, replacing local metric reduction
 * when a SystemSimulation runs as a shard.  Every record carries the
 * shard-local fired-event index at which it was produced (the des
 * kernel increments fired() before invoking the callback, so inside
 * an event fired() is that event's 1-based index); together with the
 * timestamp this pins each record to an exact position in the global
 * serial event order.
 */
struct ShardLog
{
    /** A completed task: everything MetricsCollector consumes. */
    struct Completion
    {
        double arrival = 0.0;
        double transmitStart = 0.0;
        double serviceEnd = 0.0;
        std::uint64_t firedIndex = 0;
        std::uint32_t processor = 0; ///< global processor index
        std::uint32_t routingAttempts = 0;
        std::uint32_t boxesTraversed = 0;
    };

    /** A +-1 step of the shard's waiting-task count. */
    struct QueueChange
    {
        double time = 0.0;
        std::uint64_t firedIndex = 0;
        std::int32_t delta = 0; ///< +1 arrival push, -1 dispatch pop
    };

    /** A timestamped marker (rejection or model-detected saturation). */
    struct Mark
    {
        double time = 0.0;
        std::uint64_t firedIndex = 0;
    };

    std::vector<Completion> completions;
    std::vector<QueueChange> queueChanges;
    std::vector<Mark> rejections;
    /** noteSaturated() calls (e.g. omega return-path overload). */
    std::vector<Mark> satEvents;

    void
    clear()
    {
        completions.clear();
        queueChanges.clear();
        rejections.clear();
        satEvents.clear();
    }
};

/**
 * Marks a SystemSimulation as one shard of a partitioned run: capture
 * observations into @p log instead of reducing them locally, offset
 * RNG streams (per processor and per network) and reported processor
 * indices by @p processorOffset so they match the serial run's global
 * numbering.
 */
struct ShardContext
{
    ShardLog *log = nullptr; ///< non-null switches capture mode on
    std::size_t processorOffset = 0;

    bool capturing() const { return log != nullptr; }
};

} // namespace rsin
