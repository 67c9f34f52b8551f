#include "metrics.hpp"

#include <algorithm>
#include <limits>

#include "common/error.hpp"

namespace rsin {
namespace workload {

MetricsCollector::MetricsCollector(std::uint64_t warmup_tasks,
                                   std::size_t batch_size)
    : warmup_(warmup_tasks), delay_(batch_size)
{
}

void
MetricsCollector::taskCompleted(const Task &task)
{
    ++completed_;
    if (completed_ <= warmup_)
        return;
    const double d = task.queueingDelay();
    if (d < 1e-12)
        ++zeroDelay_;
    delay_.add(d);
    response_.add(task.responseTime());
    attempts_.add(static_cast<double>(task.routingAttempts));
    boxes_.add(static_cast<double>(task.boxesTraversed));
    if (task.processor >= perProcessor_.size())
        perProcessor_.resize(task.processor + 1);
    perProcessor_[task.processor].add(d);
    // Strided sampling bounds quantile memory: whenever the buffer
    // fills, halve its resolution by doubling the stride.
    if (++sinceSample_ >= sampleStride_) {
        sinceSample_ = 0;
        delaySamples_.push_back(d);
        if (delaySamples_.size() >= 65536) {
            std::vector<double> halved;
            halved.reserve(delaySamples_.size() / 2);
            for (std::size_t i = 0; i < delaySamples_.size(); i += 2)
                halved.push_back(delaySamples_[i]);
            delaySamples_ = std::move(halved);
            sampleStride_ *= 2;
        }
    }
}

double
MetricsCollector::fractionZeroDelay() const
{
    const auto n = delay_.observations();
    if (n == 0)
        return 0.0;
    return static_cast<double>(zeroDelay_) / static_cast<double>(n);
}

double
MetricsCollector::delayQuantile(double q) const
{
    RSIN_REQUIRE(0.0 <= q && q <= 1.0, "delayQuantile: q = ", q,
                 " is outside [0, 1]");
    // No observations means no distribution: NaN, so that a truncated
    // run cannot leak a fake zero-delay tail into tables or records.
    if (delaySamples_.empty())
        return std::numeric_limits<double>::quiet_NaN();
    // Interpolate between order statistics lo and lo + 1 of the
    // reservoir.  Selecting them needs no full sort: nth_element puts
    // the lo-th in place with everything after it no smaller, so the
    // next one is the least of that tail.
    std::vector<double> sample = delaySamples_;
    const std::size_t last = sample.size() - 1;
    const double pos = q * static_cast<double>(last);
    const auto lo = static_cast<std::size_t>(pos);
    const double frac = pos - static_cast<double>(lo);
    const auto at_lo = sample.begin() + static_cast<std::ptrdiff_t>(lo);
    std::nth_element(sample.begin(), at_lo, sample.end());
    const double hi = lo < last ? *std::min_element(at_lo + 1, sample.end())
                                : *at_lo;
    return *at_lo * (1.0 - frac) + hi * frac;
}

double
MetricsCollector::meanDelayOf(std::size_t processor) const
{
    if (processor >= perProcessor_.size())
        return 0.0;
    return perProcessor_[processor].mean();
}

std::size_t
MetricsCollector::activeProcessors() const
{
    std::size_t n = 0;
    for (const auto &acc : perProcessor_)
        n += acc.count() > 0 ? 1 : 0;
    return n;
}

double
MetricsCollector::delayImbalance() const
{
    double lo = 0.0, hi = 0.0;
    bool first = true;
    for (const auto &acc : perProcessor_) {
        if (acc.count() == 0)
            continue;
        const double m = acc.mean();
        if (first) {
            lo = hi = m;
            first = false;
        } else {
            lo = std::min(lo, m);
            hi = std::max(hi, m);
        }
    }
    const double overall = delay_.mean();
    if (first || overall <= 0.0)
        return 0.0;
    return (hi - lo) / overall;
}

} // namespace workload
} // namespace rsin
