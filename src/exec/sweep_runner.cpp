#include "sweep_runner.hpp"

#include <algorithm>
#include <chrono>
#include <ostream>
#include <vector>

#include "common/contract.hpp"
#include "common/rng.hpp"

namespace rsin {
namespace exec {

std::uint64_t
cellSeed(std::uint64_t baseSeed, std::size_t config, std::size_t point,
         std::size_t replication)
{
    // The mixing lives in common/rng so model-layer planners (the
    // campaign enumerator) can derive the identical seed without an
    // upward dependency on exec.
    return mixSeed(baseSeed, static_cast<std::uint64_t>(config),
                   static_cast<std::uint64_t>(point),
                   static_cast<std::uint64_t>(replication));
}

SweepObserver::SweepObserver(std::string label,
                             std::ostream *progress_stream)
    : label_(std::move(label)), progress_(progress_stream)
{
}

void
SweepObserver::addWork(std::size_t cells)
{
    std::lock_guard<std::mutex> lock(mutex_);
    total_ += cells;
}

void
SweepObserver::cellDone(const SweepCell &, double seconds)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++stats_.cellsDone;
    stats_.cellSecondsTotal += seconds;
    if (seconds > stats_.cellSecondsMax)
        stats_.cellSecondsMax = seconds;
    if (progress_) {
        // One carriage-returned line; a newline only once the last
        // announced cell lands, so logs stay single-line per sweep.
        *progress_ << "\r" << label_ << ": " << stats_.cellsDone << "/"
                   << total_ << " cells";
        if (stats_.cellsDone >= total_)
            *progress_ << "\n";
        progress_->flush();
    }
}

SweepStats
SweepObserver::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

void
SweepRunner::run(std::size_t configs, std::size_t points,
                 std::size_t replications, std::uint64_t baseSeed,
                 const std::function<void(const SweepCell &)> &fn) const
{
    forEachCell(configs * points * replications,
                [&](std::size_t flat) {
                    SweepCell cell;
                    cell.flat = flat;
                    cell.replication = flat % replications;
                    cell.point = (flat / replications) % points;
                    cell.config = flat / (replications * points);
                    cell.seed = cellSeed(baseSeed, cell.config, cell.point,
                                         cell.replication);
                    return cell;
                },
                fn);
}

void
SweepRunner::runCells(const std::vector<SweepCell> &cells,
                      const std::function<void(const SweepCell &)> &fn) const
{
    forEachCell(cells.size(), [&](std::size_t i) { return cells[i]; }, fn);
}

void
SweepRunner::forEachCell(
    std::size_t count, const std::function<SweepCell(std::size_t)> &cellAt,
    const std::function<void(const SweepCell &)> &fn) const
{
    RSIN_PRECONDITION(static_cast<bool>(fn) || count == 0,
                      "SweepRunner: empty cell function");
#if RSIN_CONTRACTS_ENABLED
    {
        // Bit-identical parallel/serial sweeps require every cell to
        // own a distinct stream: audit every seed for collisions
        // before any cell runs.
        std::vector<std::uint64_t> seeds;
        seeds.reserve(count);
        for (std::size_t i = 0; i < count; ++i)
            seeds.push_back(cellAt(i).seed);
        std::sort(seeds.begin(), seeds.end());
        RSIN_INVARIANT(std::adjacent_find(seeds.begin(), seeds.end()) ==
                           seeds.end(),
                       "seed collision inside one sweep: two cells would "
                       "replay the same random stream");
    }
#endif
    if (observer_)
        observer_->addWork(count);
    const auto runCell = [&](std::size_t i) {
        const SweepCell cell = cellAt(i);
        if (observer_) {
            const auto start = std::chrono::steady_clock::now();
            fn(cell);
            const std::chrono::duration<double> elapsed =
                std::chrono::steady_clock::now() - start;
            observer_->cellDone(cell, elapsed.count());
        } else {
            fn(cell);
        }
    };
    if (pool_ && pool_->size() > 1) {
        pool_->parallelFor(count, runCell);
    } else {
        for (std::size_t i = 0; i < count; ++i)
            runCell(i);
    }
}

} // namespace exec
} // namespace rsin
