#pragma once

/**
 * @file
 * Aggregation of per-task outcomes into the metrics the paper reports:
 * queueing delay d (and its normalized form mu_s * d), response time,
 * utilizations, and routing statistics, with warm-up discard and
 * batch-means confidence intervals.
 */

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/stats.hpp"
#include "workload/workload.hpp"

namespace rsin {
namespace workload {

/** Collects completed tasks and exposes the paper's summary metrics. */
class MetricsCollector
{
  public:
    /**
     * @param warmup_tasks number of initial completions to discard
     * @param batch_size batch size for the batch-means CI estimator
     */
    explicit MetricsCollector(std::uint64_t warmup_tasks = 0,
                              std::size_t batch_size = 500);

    /** Record a completed task (all timestamps filled in). */
    void taskCompleted(const Task &task);

    /** Record an instantaneous routing rejection (network statistics). */
    void taskRejected() { ++rejections_; }

    std::uint64_t completed() const { return completed_; }
    std::uint64_t counted() const { return delay_.observations(); }
    std::uint64_t rejections() const { return rejections_; }

    /** Mean queueing delay d over post-warm-up tasks. */
    double meanDelay() const { return delay_.mean(); }

    /** 95% CI half-width on the mean delay. */
    double delayHalfWidth() const { return delay_.halfWidth(); }

    /** Mean response time (queue + transmit + service). */
    double meanResponse() const { return response_.mean(); }

    /** Mean routing attempts per task (1 = no rejects ever). */
    double meanRoutingAttempts() const { return attempts_.mean(); }

    /** Mean interchange boxes traversed per task (Fig. 11 statistic). */
    double meanBoxesTraversed() const { return boxes_.mean(); }

    /** Per-processor mean delay (0 if that processor completed none). */
    double meanDelayOf(std::size_t processor) const;

    /** Number of processors that completed at least one counted task. */
    std::size_t activeProcessors() const;

    /**
     * Fairness metric: (max - min) per-processor mean delay divided by
     * the overall mean; 0 for perfectly uniform treatment.  Exposes the
     * crossbar cell design's index asymmetry (Section IV).
     */
    double delayImbalance() const;

    /**
     * Delay quantile, interpolated between the order statistics of a
     * strided sample reservoir.  The reservoir holds every counted
     * delay until it reaches 65536 samples, then keeps every second
     * sample and doubles its stride, so it always holds an evenly
     * strided subsample of the run.  Returns NaN with no observations;
     * @p q outside [0, 1] throws FatalError.
     */
    double delayQuantile(double q) const;

    /** Fraction of counted tasks that waited (essentially) zero time. */
    double fractionZeroDelay() const;

  private:
    std::uint64_t warmup_;
    std::uint64_t completed_ = 0;
    std::uint64_t rejections_ = 0;
    BatchMeans delay_;
    Accumulator response_;
    Accumulator attempts_;
    Accumulator boxes_;
    std::vector<Accumulator> perProcessor_;
    std::vector<double> delaySamples_; ///< reservoir for quantiles
    std::uint64_t sampleStride_ = 1;
    std::uint64_t sinceSample_ = 0;
    std::uint64_t zeroDelay_ = 0;
};

} // namespace workload
} // namespace rsin
