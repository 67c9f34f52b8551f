#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "error.hpp"

namespace rsin {

void
Accumulator::add(double x)
{
    if (n_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
}

void
Accumulator::merge(const Accumulator &other)
{
    if (other.n_ == 0)
        return;
    if (n_ == 0) {
        *this = other;
        return;
    }
    const double na = static_cast<double>(n_);
    const double nb = static_cast<double>(other.n_);
    const double delta = other.mean_ - mean_;
    const double n_total = na + nb;
    mean_ += delta * nb / n_total;
    m2_ += other.m2_ + delta * delta * na * nb / n_total;
    n_ += other.n_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

double
Accumulator::variance() const
{
    if (n_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(n_ - 1);
}

double
Accumulator::stddev() const
{
    return std::sqrt(variance());
}

double
Accumulator::stderror() const
{
    if (n_ < 2)
        return 0.0;
    return stddev() / std::sqrt(static_cast<double>(n_));
}

double
Accumulator::halfWidth(double confidence) const
{
    if (n_ < 2)
        return 0.0;
    return studentTCritical(n_ - 1, confidence) * stderror();
}

void
Accumulator::clear()
{
    *this = Accumulator();
}

void
TimeWeighted::record(double now, double value)
{
    if (started_) {
        RSIN_REQUIRE(now >= lastTime_, "TimeWeighted: time went backwards");
        const double dt = now - lastTime_;
        weightedSum_ += lastValue_ * dt;
        totalTime_ += dt;
    } else {
        started_ = true;
        max_ = value;
    }
    lastTime_ = now;
    lastValue_ = value;
    max_ = std::max(max_, value);
}

void
TimeWeighted::finish(double now)
{
    if (started_)
        record(now, lastValue_);
}

double
TimeWeighted::average() const
{
    // NaN, not 0: a window that never accumulated time has no average,
    // and a fake 0 reads as "the queue was always empty" downstream.
    if (totalTime_ <= 0.0)
        return std::numeric_limits<double>::quiet_NaN();
    return weightedSum_ / totalTime_;
}

void
TimeWeighted::clear()
{
    *this = TimeWeighted();
}

BatchMeans::BatchMeans(std::size_t batch_size)
    : batchSize_(batch_size)
{
    RSIN_REQUIRE(batch_size >= 1, "BatchMeans: batch size must be >= 1");
}

void
BatchMeans::add(double x)
{
    total_.add(x);
    batchSum_ += x;
    if (++inBatch_ == batchSize_) {
        batchStats_.add(batchSum_ / static_cast<double>(batchSize_));
        batchSum_ = 0.0;
        inBatch_ = 0;
    }
}

double
BatchMeans::mean() const
{
    return total_.mean();
}

double
BatchMeans::halfWidth(double confidence) const
{
    return batchStats_.halfWidth(confidence);
}

double
studentTCritical(std::uint64_t dof, double confidence)
{
    RSIN_REQUIRE(confidence > 0.0 && confidence < 1.0,
                 "confidence must be in (0,1)");
    // Table lookup for the small-dof range, normal quantile beyond it.
    struct Row { std::uint64_t dof; double t90, t95, t99; };
    static const Row table[] = {
        {1, 6.314, 12.706, 63.657}, {2, 2.920, 4.303, 9.925},
        {3, 2.353, 3.182, 5.841},   {4, 2.132, 2.776, 4.604},
        {5, 2.015, 2.571, 4.032},   {6, 1.943, 2.447, 3.707},
        {7, 1.895, 2.365, 3.499},   {8, 1.860, 2.306, 3.355},
        {9, 1.833, 2.262, 3.250},   {10, 1.812, 2.228, 3.169},
        {12, 1.782, 2.179, 3.055},  {15, 1.753, 2.131, 2.947},
        {20, 1.725, 2.086, 2.845},  {25, 1.708, 2.060, 2.787},
        {30, 1.697, 2.042, 2.750},  {40, 1.684, 2.021, 2.704},
        {60, 1.671, 2.000, 2.660},  {120, 1.658, 1.980, 2.617},
    };
    auto pick = [&](const Row &r) {
        if (confidence <= 0.90)
            return r.t90;
        if (confidence <= 0.95)
            return r.t95;
        return r.t99;
    };
    for (const auto &row : table) {
        if (dof <= row.dof)
            return pick(row);
    }
    // dof > 120: normal quantiles.
    if (confidence <= 0.90)
        return 1.645;
    if (confidence <= 0.95)
        return 1.960;
    return 2.576;
}

} // namespace rsin
