#include "thread_pool.hpp"

#include <atomic>
#include <exception>
#include <memory>

#include "common/error.hpp"

namespace rsin {
namespace exec {

ThreadPool::ThreadPool(std::size_t threads)
{
    RSIN_REQUIRE(threads >= 1, "ThreadPool: need at least one worker, "
                 "got ", threads);
    workers_.reserve(threads);
    for (std::size_t i = 0; i < threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    taskReady_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    RSIN_REQUIRE(static_cast<bool>(task), "ThreadPool::submit: empty task");
    {
        std::unique_lock<std::mutex> lock(mutex_);
        queue_.push_back(std::move(task));
    }
    taskReady_.notify_one();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            taskReady_.wait(
                lock, [this] { return stopping_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stopping_ and drained
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &body)
{
    if (n == 0)
        return;
    // Shared between the caller and the helper tasks; shared_ptr keeps
    // it alive for helpers that start after the caller has returned
    // (they find next >= n and exit immediately).
    struct State
    {
        std::function<void(std::size_t)> body;
        std::size_t n;
        std::atomic<std::size_t> next{0};
        std::atomic<std::size_t> done{0};
        std::mutex mutex;
        std::condition_variable finished;
        std::exception_ptr error;
    };
    auto state = std::make_shared<State>();
    state->body = body;
    state->n = n;

    const auto drain = [](const std::shared_ptr<State> &st) {
        for (;;) {
            const std::size_t i =
                st->next.fetch_add(1, std::memory_order_relaxed);
            if (i >= st->n)
                return;
            try {
                st->body(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(st->mutex);
                if (!st->error)
                    st->error = std::current_exception();
            }
            if (st->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
                st->n) {
                std::lock_guard<std::mutex> lock(st->mutex);
                st->finished.notify_all();
            }
        }
    };

    // One helper per worker is enough: each helper loops until the
    // index range is exhausted.
    const std::size_t helpers =
        n > 1 ? (workers_.size() < n - 1 ? workers_.size() : n - 1) : 0;
    for (std::size_t i = 0; i < helpers; ++i)
        submit([state, drain] { drain(state); });

    drain(state);
    {
        std::unique_lock<std::mutex> lock(state->mutex);
        state->finished.wait(lock, [&] {
            return state->done.load(std::memory_order_acquire) == n;
        });
        if (state->error)
            std::rethrow_exception(state->error);
    }
}

} // namespace exec
} // namespace rsin
