#pragma once

/**
 * @file
 * Deterministic fan-out of (config x point x replication) sweep grids.
 *
 * Every figure bench and the sweep tool iterate the same triple loop:
 * a handful of configurations, a traffic-intensity grid, and a few
 * independent replications per cell.  SweepRunner flattens that grid
 * and distributes the cells over a ThreadPool.  Each cell carries a
 * seed derived purely from (baseSeed, config, point, replication), so
 * results are a function of the cell's coordinates alone — never of
 * the execution schedule — and a parallel sweep is bit-identical to
 * the serial loop.
 */

#include <cstddef>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "exec/thread_pool.hpp"

namespace rsin {
namespace exec {

/** One cell of a sweep grid. */
struct SweepCell
{
    std::size_t config = 0;      ///< configuration index
    std::size_t point = 0;       ///< sweep-point (e.g. rho) index
    std::size_t replication = 0; ///< replication index within the cell
    std::size_t flat = 0;        ///< row-major flattened index
    std::uint64_t seed = 0;      ///< deterministic per-cell seed
};

/**
 * Seed for one sweep cell, mixed from the coordinates with SplitMix64
 * (the same mixer Rng uses to expand seeds).  A pure function of its
 * arguments: no generator state is threaded through the grid, so any
 * subset of cells can be computed in any order or on any thread.
 */
std::uint64_t cellSeed(std::uint64_t baseSeed, std::size_t config,
                       std::size_t point, std::size_t replication);

/** Aggregate work counters of one or more sweep grids. */
struct SweepStats
{
    std::size_t cellsDone = 0;        ///< cells completed so far
    double cellSecondsTotal = 0.0;    ///< summed per-cell wall time
    double cellSecondsMax = 0.0;      ///< slowest single cell
};

/**
 * Thread-safe sweep-side observability: counts finished cells and
 * their wall time, and (opt-in) prints a live progress line while a
 * parallel sweep runs.  Attach one observer to a SweepRunner; the
 * runner times every cell and reports it here.  One observer may
 * outlive many runner.run() calls and accumulates across them.
 */
class SweepObserver
{
  public:
    /**
     * @param label prefix of the progress line (e.g. the curve name)
     * @param progress_stream stream for the live progress line, or
     *        nullptr for silent counting (stats only)
     */
    explicit SweepObserver(std::string label = "sweep",
                           std::ostream *progress_stream = nullptr);

    /** Announce @p cells more cells of upcoming work. */
    void addWork(std::size_t cells);

    /** Record one finished cell and its wall time (thread-safe). */
    void cellDone(const SweepCell &cell, double seconds);

    /** Snapshot of the counters (thread-safe). */
    SweepStats stats() const;

  private:
    mutable std::mutex mutex_;
    std::string label_;
    std::ostream *progress_; ///< nullptr disables the progress line
    std::size_t total_ = 0;
    SweepStats stats_;
};

/** Runs sweep grids over a ThreadPool (or serially without one). */
class SweepRunner
{
  public:
    /**
     * @param pool worker pool; nullptr runs cells serially in-place.
     * @param observer optional progress/work-counter sink; when set,
     *        every cell is timed and reported to it.
     */
    explicit SweepRunner(ThreadPool *pool,
                         SweepObserver *observer = nullptr)
        : pool_(pool), observer_(observer)
    {
    }

    /**
     * Invoke @p fn once per cell of a configs x points x replications
     * grid.  Cells run concurrently when a pool is attached; @p fn
     * must therefore only write state owned by its own cell (e.g. its
     * slot in a results vector).  Returns after every cell completed.
     * Cell seeds are cellSeed(baseSeed, ...).
     */
    void run(std::size_t configs, std::size_t points,
             std::size_t replications, std::uint64_t baseSeed,
             const std::function<void(const SweepCell &)> &fn) const;

    /**
     * Invoke @p fn once per cell of an explicit, caller-built cell
     * list -- the scheduling hook resumable sweeps need: a campaign
     * replaying its ledger passes only the cells that still have to
     * run (and only those of its process shard), with seeds carried
     * in the cells themselves.  Same concurrency/ownership contract
     * as run(); cells carrying duplicate seeds are a contract
     * violation (each cell must own a distinct stream).
     */
    void
    runCells(const std::vector<SweepCell> &cells,
             const std::function<void(const SweepCell &)> &fn) const;

  private:
    /**
     * The cell loop of run() and runCells(): audit the seeds of the
     * @p count cells that @p cellAt builds, then call @p fn on each,
     * timed for the observer, over the pool when it has more than one
     * worker.
     */
    void forEachCell(std::size_t count,
                     const std::function<SweepCell(std::size_t)> &cellAt,
                     const std::function<void(const SweepCell &)> &fn) const;

    ThreadPool *pool_;
    SweepObserver *observer_;
};

} // namespace exec
} // namespace rsin
