#include "system.hpp"

#include <cmath>
#include <limits>

#include "common/contract.hpp"
#include "common/error.hpp"
#include "common/text.hpp"

namespace rsin {

const char *
toString(RunStatus status)
{
    switch (status) {
      case RunStatus::Ok:
        return "ok";
      case RunStatus::Saturated:
        return "saturated";
      case RunStatus::Truncated:
        return "truncated";
      case RunStatus::NoData:
        return "no_data";
    }
    RSIN_PANIC("toString: unknown RunStatus");
}

RunStatus
parseRunStatus(const std::string &name)
{
    for (RunStatus status :
         {RunStatus::Ok, RunStatus::Saturated, RunStatus::Truncated,
          RunStatus::NoData})
        if (name == toString(status))
            return status;
    RSIN_FATAL("parseRunStatus: unknown status '", name, "'");
}

SystemSimulation::SystemSimulation(std::size_t processors,
                                   const workload::WorkloadParams &params,
                                   const SimOptions &options,
                                   const ShardContext &shard)
    : params_(params), options_(options), rng_(options.seed),
      queues_(processors), shard_(shard)
{
    RSIN_REQUIRE(processors >= 1, "SystemSimulation: need a processor");
    params_.validate();
    transmitting_.assign(processors, false);
    ready_.assign((processors + 63) / 64, 0);
    sources_.reserve(processors);
    // A shard reproduces the serial run's per-processor RNG streams by
    // discarding the splits of the processors owned by earlier shards:
    // processor (offset + j) here draws from the same stream it would
    // in the serial run.
    for (std::size_t skip = 0; skip < shard_.processorOffset; ++skip)
        (void)rng_.split();
    for (std::size_t proc = 0; proc < processors; ++proc)
        sources_.emplace_back(proc, params_, rng_.split());
    metrics_ = std::make_unique<workload::MetricsCollector>(
        options_.warmupTasks);
}

std::uint64_t
SystemSimulation::completedCount() const
{
    // The shard log is cleared at every window barrier, so capture
    // mode keeps its own lifetime completion count.
    return shard_.capturing() ? captureCompleted_
                              : metrics_->completed();
}

void
SystemSimulation::checkConservation() const
{
    RSIN_INVARIANT(
        nextTaskId_ == completedCount() + queuedNow_ + inFlight_,
        "task conservation broken: issued ", nextTaskId_,
        " != completed ", completedCount(), " + queued ",
        queuedNow_, " + in-flight ", inFlight_);
    RSIN_INVARIANT(
        queuedNow_ == queues_.total(), "cached queue count ", queuedNow_,
        " disagrees with the queues themselves");
    RSIN_INVARIANT(
        [this] {
            for (std::size_t proc = 0; proc < processors(); ++proc)
                if (processorReady(proc) !=
                    (!transmitting_[proc] && queues_.size(proc) > 0))
                    return false;
            return true;
        }(),
        "the ready set disagrees with the queues and transmit flags");
}

std::size_t
SystemSimulation::TaskQueues::total() const
{
    std::size_t sum = 0;
    for (const Queue &queue : queues_)
        sum += queue.size;
    return sum;
}

void
SystemSimulation::TaskQueues::push(std::size_t proc, workload::Task task)
{
    std::uint32_t node = freeNode_;
    if (node != kNil) {
        freeNode_ = nodes_[node].next;
        nodes_[node] = {std::move(task), kNil};
    } else {
        RSIN_REQUIRE(nodes_.size() < kNil, "TaskQueues: too many tasks");
        node = static_cast<std::uint32_t>(nodes_.size());
        nodes_.push_back({std::move(task), kNil});
    }
    Queue &queue = queues_[proc];
    if (queue.size == 0)
        queue.head = node;
    else
        nodes_[queue.tail].next = node;
    queue.tail = node;
    ++queue.size;
}

workload::Task
SystemSimulation::TaskQueues::pop(std::size_t proc)
{
    Queue &queue = queues_[proc];
    RSIN_ASSERT(queue.size > 0, "TaskQueues::pop: empty queue");
    const std::uint32_t node = queue.head;
    workload::Task task = std::move(nodes_[node].task);
    queue.head = nodes_[node].next;
    --queue.size;
    nodes_[node].next = freeNode_;
    freeNode_ = node;
    return task;
}

void
SystemSimulation::scheduleArrival(std::size_t proc)
{
    const double dt = sources_[proc].nextInterarrival();
    sim_.schedule(dt, [this, proc] {
        workload::Task task =
            sources_[proc].makeTask(sim_.now(), nextTaskId_++);
        queues_.push(proc, std::move(task));
        ++queuedNow_;
        if (!transmitting_[proc])
            setReady(proc, true);
        if (shard_.capturing()) {
            // Log the step; the merge driver reconstructs the global
            // queue trace and detects global saturation.  The local
            // count still guards this shard: local > limit implies
            // global > limit, so the serial stop point is at or before
            // this event and the shard may park.
            shard_.log->queueChanges.push_back(
                {sim_.now(), sim_.fired(), +1});
            if (queuedNow_ > options_.saturationQueueLimit)
                captureParked_ = true;
        } else {
            queueTrace_.record(sim_.now(),
                               static_cast<double>(queuedNow_));
            if (queuedNow_ > options_.saturationQueueLimit)
                saturated_ = true;
        }
        checkConservation();
        scheduleArrival(proc);
        onArrival(proc);
    });
}

const workload::Task &
SystemSimulation::headTask(std::size_t proc) const
{
    RSIN_ASSERT(proc < processors() && queues_.size(proc) > 0,
                "headTask: empty queue");
    return queues_.front(proc);
}

bool
SystemSimulation::queueEmpty(std::size_t proc) const
{
    RSIN_ASSERT(proc < processors(), "queueEmpty: bad processor");
    return queues_.size(proc) == 0;
}

std::size_t
SystemSimulation::queueLength(std::size_t proc) const
{
    RSIN_ASSERT(proc < processors(), "queueLength: bad processor");
    return queues_.size(proc);
}

std::size_t
SystemSimulation::totalQueued() const
{
    return queuedNow_;
}

workload::Task
SystemSimulation::beginTransmission(std::size_t proc)
{
    RSIN_ASSERT(processorReady(proc), "beginTransmission: not ready");
    workload::Task task = queues_.pop(proc);
    --queuedNow_;
    if (shard_.capturing())
        shard_.log->queueChanges.push_back(
            {sim_.now(), sim_.fired(), -1});
    else
        queueTrace_.record(sim_.now(), static_cast<double>(queuedNow_));
    transmitting_[proc] = true;
    setReady(proc, false);
    task.transmitStart = sim_.now();
    ++inFlight_;
    checkConservation();
    return task;
}

void
SystemSimulation::endTransmission(std::size_t proc)
{
    RSIN_ASSERT(transmitting_[proc], "endTransmission: not transmitting");
    transmitting_[proc] = false;
    setReady(proc, queues_.size(proc) > 0);
}

void
SystemSimulation::completeTask(workload::Task task)
{
    RSIN_INVARIANT(inFlight_ > 0,
                   "completeTask without a matching beginTransmission");
    task.serviceEnd = sim_.now();
    if (shard_.capturing()) {
        ++captureCompleted_;
        shard_.log->completions.push_back(
            {task.arrival, task.transmitStart, task.serviceEnd,
             sim_.fired(),
             static_cast<std::uint32_t>(task.processor +
                                        shard_.processorOffset),
             task.routingAttempts, task.boxesTraversed});
    } else {
        metrics_->taskCompleted(task);
    }
    --inFlight_;
    checkConservation();
}

bool
SystemSimulation::done() const
{
    return saturated_ ||
           completedCount() >=
               options_.warmupTasks + options_.measureTasks ||
           sim_.fired() >= options_.maxEvents;
}

void
SystemSimulation::primePartitionedRun()
{
    RSIN_REQUIRE(shard_.capturing(),
                 "primePartitionedRun: only legal in capture mode");
    if (params_.lambda > 0.0) {
        for (std::size_t proc = 0; proc < processors(); ++proc)
            scheduleArrival(proc);
    }
}

SimResult
SystemSimulation::run()
{
    RSIN_REQUIRE(!shard_.capturing(),
                 "run: a capture-mode shard is driven through "
                 "primePartitionedRun and the partitioned driver");
    if (params_.lambda > 0.0) {
        for (std::size_t proc = 0; proc < processors(); ++proc)
            scheduleArrival(proc);
    }
    while (!done() && sim_.step()) {
    }
    return assembleSimResult(*metrics_, queueTrace_, saturated_,
                             options_, params_, sim_.now(),
                             sim_.counters());
}

SimResult
assembleSimResult(const workload::MetricsCollector &metrics,
                  TimeWeighted &queueTrace, bool saturated,
                  const SimOptions &options,
                  const workload::WorkloadParams &params,
                  double simulatedTime,
                  const des::KernelCounters &kernel)
{
    SimResult result;
    // Classify the stop reason.  A run cut off by maxEvents (or an
    // emptied calendar) before its measurement quota used to fall
    // through here as a zero-delay "success"; it is Truncated when it
    // measured something and NoData when it measured nothing at all.
    const std::uint64_t quota =
        options.warmupTasks + options.measureTasks;
    if (saturated)
        result.status = RunStatus::Saturated;
    else if (metrics.counted() == 0)
        result.status = RunStatus::NoData;
    else if (metrics.completed() < quota)
        result.status = RunStatus::Truncated;
    else
        result.status = RunStatus::Ok;
    result.saturated = saturated;
    const bool no_data = metrics.counted() == 0;
    const double nan = std::numeric_limits<double>::quiet_NaN();
    result.meanDelay = no_data ? nan : metrics.meanDelay();
    result.delayHalfWidth = no_data ? nan : metrics.delayHalfWidth();
    result.normalizedDelay = result.meanDelay * params.muS;
    result.meanResponse = no_data ? nan : metrics.meanResponse();
    result.meanRoutingAttempts =
        no_data ? nan : metrics.meanRoutingAttempts();
    result.meanBoxesTraversed =
        no_data ? nan : metrics.meanBoxesTraversed();
    result.delayImbalance = no_data ? nan : metrics.delayImbalance();
    queueTrace.finish(simulatedTime);
    result.timeAvgQueue = queueTrace.average();
    result.delayP95 = metrics.delayQuantile(0.95);
    result.delayP99 = metrics.delayQuantile(0.99);
    result.fractionNoWait = no_data ? nan : metrics.fractionZeroDelay();
    result.completedTasks = metrics.completed();
    result.countedTasks = metrics.counted();
    result.rejections = metrics.rejections();
    result.simulatedTime = simulatedTime;
    result.kernel = kernel;
    return result;
}

} // namespace rsin
