#pragma once

/**
 * @file
 * Statistics accumulators used to summarize simulation output.
 *
 * Three flavours are provided:
 *  - Accumulator: streaming sample statistics (Welford's algorithm);
 *  - TimeWeighted: time-averaged statistics for piecewise-constant
 *    processes such as queue lengths;
 *  - BatchMeans: batch-means confidence intervals for steady-state
 *    simulation output (the standard method for a single long run).
 */

#include <cstddef>
#include <cstdint>

namespace rsin {

/** Streaming mean/variance/min/max over observations (Welford). */
class Accumulator
{
  public:
    /** Add one observation. */
    void add(double x);

    /** Merge another accumulator (parallel/replicated runs). */
    void merge(const Accumulator &other);

    /** Number of observations added so far. */
    std::uint64_t count() const { return n_; }

    /** Sample mean; 0 when empty. */
    double mean() const { return n_ ? mean_ : 0.0; }

    /** Unbiased sample variance; 0 with fewer than two observations. */
    double variance() const;

    /** Sample standard deviation. */
    double stddev() const;

    /** Standard error of the mean. */
    double stderror() const;

    double min() const { return min_; }
    double max() const { return max_; }
    double sum() const { return mean_ * static_cast<double>(n_); }

    /** Half-width of the (approximate) confidence interval on the mean. */
    double halfWidth(double confidence = 0.95) const;

    /** Reset to the empty state. */
    void clear();

  private:
    std::uint64_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Time-weighted average of a piecewise-constant signal, e.g. the number
 * of tasks in a queue.  Call record(t, v) whenever the value changes;
 * the weight of each value is the elapsed simulated time it held.
 */
class TimeWeighted
{
  public:
    /** Record that the signal takes value @p value from time @p now on. */
    void record(double now, double value);

    /** Close the window at time @p now without changing the value. */
    void finish(double now);

    /** Time-averaged value; NaN when no time was observed. */
    double average() const;

    /** Total observed time. */
    double elapsed() const { return totalTime_; }

    /** Maximum value seen. */
    double max() const { return max_; }

    /** Drop all history; the next record() starts a new window. */
    void clear();

  private:
    bool started_ = false;
    double lastTime_ = 0.0;
    double lastValue_ = 0.0;
    double weightedSum_ = 0.0;
    double totalTime_ = 0.0;
    double max_ = 0.0;
};

/**
 * Batch-means estimator: observations are grouped into fixed-size batches
 * and the batch averages are treated as (approximately) independent
 * samples, giving a defensible confidence interval from one long run.
 */
class BatchMeans
{
  public:
    /** @param batch_size observations per batch (>= 1). */
    explicit BatchMeans(std::size_t batch_size = 1000);

    /** Add one raw observation. */
    void add(double x);

    /** Number of completed batches. */
    std::size_t batches() const { return batchStats_.count(); }

    /** Grand mean over completed batches (plus the partial batch). */
    double mean() const;

    /** 95% (default) CI half-width computed over batch means. */
    double halfWidth(double confidence = 0.95) const;

    std::uint64_t observations() const { return total_.count(); }

  private:
    std::size_t batchSize_;
    std::size_t inBatch_ = 0;
    double batchSum_ = 0.0;
    Accumulator batchStats_;
    Accumulator total_;
};

/**
 * Two-sided critical value of the Student t distribution, approximated
 * for the confidence levels used in simulation practice (0.90/0.95/0.99).
 */
double studentTCritical(std::uint64_t dof, double confidence);

} // namespace rsin
