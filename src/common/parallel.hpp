#pragma once

/**
 * @file
 * Executor: the minimal parallel-for capability model code may accept.
 *
 * Model layers (rsin/) must not depend on the runtime layer (exec/) --
 * the layer DAG forbids it -- yet simulate() runs the shards of a
 * partitioned run (SimOptions::shards > 1) on whatever worker pool the
 * caller owns.  This interface inverts that dependency:
 * exec::ThreadPool implements it, the engine consumes it, and the
 * include arrow points down the DAG.
 *
 * Implementations must guarantee that body(0..n-1) each run exactly
 * once and that parallelFor returns only after all of them completed;
 * they do not guarantee any ordering, so callers must keep cells
 * independent (the same contract SweepRunner documents).
 */

#include <cstddef>
#include <functional>

namespace rsin {
namespace common {

/** Abstract fan-out target for independent, coarse-grained work. */
class Executor
{
  public:
    virtual ~Executor() = default;

    /** Worker count; 1 means effectively serial. */
    virtual std::size_t size() const = 0;

    /**
     * Run body(0..n-1), returning after all indices completed.  The
     * first exception thrown by @p body is rethrown here.
     */
    virtual void
    parallelFor(std::size_t n,
                const std::function<void(std::size_t)> &body) = 0;
};

} // namespace common
} // namespace rsin
