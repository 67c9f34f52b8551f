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
    const std::size_t total = configs * points * replications;
    RSIN_PRECONDITION(static_cast<bool>(fn) || total == 0,
                      "SweepRunner::run: empty cell function");
#if RSIN_CONTRACTS_ENABLED
    {
        // Bit-identical parallel/serial sweeps require every cell to
        // own a distinct stream: audit the whole grid for cellSeed
        // collisions before any cell runs.
        std::vector<std::uint64_t> seeds;
        seeds.reserve(total);
        for (std::size_t c = 0; c < configs; ++c)
            for (std::size_t p = 0; p < points; ++p)
                for (std::size_t r = 0; r < replications; ++r)
                    seeds.push_back(cellSeed(baseSeed, c, p, r));
        std::sort(seeds.begin(), seeds.end());
        RSIN_INVARIANT(std::adjacent_find(seeds.begin(), seeds.end()) ==
                           seeds.end(),
                       "cellSeed collision inside one sweep grid: two "
                       "cells would replay the same random stream");
    }
#endif
    if (observer_)
        observer_->addWork(total);
    const auto runCell = [&](std::size_t flat) {
        SweepCell cell;
        cell.flat = flat;
        cell.replication = flat % replications;
        cell.point = (flat / replications) % points;
        cell.config = flat / (replications * points);
        cell.seed =
            cellSeed(baseSeed, cell.config, cell.point, cell.replication);
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
        pool_->parallelFor(total, runCell);
    } else {
        for (std::size_t flat = 0; flat < total; ++flat)
            runCell(flat);
    }
}

void
SweepRunner::runCells(const std::vector<SweepCell> &cells,
                      const std::function<void(const SweepCell &)> &fn) const
{
    RSIN_PRECONDITION(static_cast<bool>(fn) || cells.empty(),
                      "SweepRunner::runCells: empty cell function");
#if RSIN_CONTRACTS_ENABLED
    {
        std::vector<std::uint64_t> seeds;
        seeds.reserve(cells.size());
        for (const SweepCell &cell : cells)
            seeds.push_back(cell.seed);
        std::sort(seeds.begin(), seeds.end());
        RSIN_INVARIANT(std::adjacent_find(seeds.begin(), seeds.end()) ==
                           seeds.end(),
                       "seed collision inside one cell list: two cells "
                       "would replay the same random stream");
    }
#endif
    if (observer_)
        observer_->addWork(cells.size());
    const auto runCell = [&](std::size_t i) {
        const SweepCell &cell = cells[i];
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
        pool_->parallelFor(cells.size(), runCell);
    } else {
        for (std::size_t i = 0; i < cells.size(); ++i)
            runCell(i);
    }
}

} // namespace exec
} // namespace rsin
