#pragma once

/**
 * @file
 * Fixed-size thread pool for fanning out independent simulation cells.
 *
 * Deliberately work-stealing-free: a single mutex-protected FIFO feeds
 * a fixed set of workers.  Sweep cells are coarse (one full simulation
 * run each, milliseconds to seconds), so queue contention is
 * negligible and the simple design is easy to audit for races.
 *
 * parallelFor() is the only entry point.  The calling thread
 * participates in the index loop, which makes nested calls safe: a
 * worker that re-enters parallelFor simply drains the inner range
 * itself instead of deadlocking on the (busy) pool.
 */

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/parallel.hpp"

namespace rsin {
namespace exec {

/**
 * Fixed-size thread pool with a shared FIFO task queue.  Implements
 * common::Executor so model-layer code can fan work out over it
 * without depending on this header.
 */
class ThreadPool : public common::Executor
{
  public:
    /**
     * @param threads worker count, at least 1 (a "--jobs 0" resolves
     *        to a count in ArgParser::getJobs)
     */
    explicit ThreadPool(std::size_t threads);

    /** Drains outstanding tasks, then joins the workers. */
    ~ThreadPool() override;

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Number of worker threads. */
    std::size_t size() const override { return workers_.size(); }

    /**
     * Run body(0..n-1), distributing indices over the workers and the
     * calling thread; returns when all n indices have completed.  The
     * first exception thrown by @p body is rethrown here (remaining
     * indices still run).  Safe to call from inside a pool task.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &body) override;

  private:
    /** Enqueue a task for asynchronous execution. */
    void submit(std::function<void()> task);

    void workerLoop();

    std::vector<std::thread> workers_;
    std::mutex mutex_;
    std::condition_variable taskReady_;
    std::deque<std::function<void()>> queue_;
    bool stopping_ = false;
};

} // namespace exec
} // namespace rsin
