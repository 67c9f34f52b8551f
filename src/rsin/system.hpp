#pragma once

/**
 * @file
 * Event-driven simulation framework shared by the RSIN system models
 * (bus and crossbar, Omega, and the packet and multi-resource
 * extensions), implementing the task lifecycle and assumptions of
 * paper Section II:
 *
 *   (a) Poisson arrivals per processor; exponential transmit/service
 *       (other distributions are available as extensions);
 *   (b) blocked tasks queue FIFO at their processor and retry when the
 *       network signals a status change; no queueing at resources;
 *   (c) negligible network propagation delay;
 *   (d, e) one resource class, one resource per request (the typed
 *       extension lives in the Omega model);
 *   (f) a processor transmits one task at a time.
 *
 * Dispatch is event-local, as assumption (b) describes: a blocked task
 * retries only when *its* network signals a status change.  The base
 * class calls onArrival() with the processor a task just joined; each
 * subclass re-dispatches the arriving processor's network there, and
 * its completion handlers re-dispatch only the bus or network whose
 * status they changed.  A network nothing happened to is never
 * re-examined.  The base class keeps a bitset of ready processors (a
 * task waiting, no transmission in progress) so dispatch loops visit
 * only those, in ascending index order.
 */

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/contract.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "des/simulator.hpp"
#include "rsin/config.hpp"
#include "rsin/partition.hpp"
#include "workload/metrics.hpp"
#include "workload/workload.hpp"

namespace rsin {

/** Run-control knobs for a simulation. */
struct SimOptions
{
    std::uint64_t seed = 1;
    std::uint64_t warmupTasks = 2000;   ///< completions discarded
    std::uint64_t measureTasks = 30000; ///< completions measured
    /** Queue size at which the run is declared saturated and aborted. */
    std::size_t saturationQueueLimit = 50000;
    /** Hard ceiling on simulated events (secondary safety valve). */
    std::uint64_t maxEvents = 200000000;
    /**
     * Calendar shards of a partitioned run (src/rsin/partitioned_run.hpp):
     * 0 and 1 run the serial calendar, and any larger value is a
     * shard-count request (clamped to the number of independent
     * networks in the config; unsplittable systems fall back to the
     * serial path).  No command-line driver sets it.
     */
    std::size_t shards = 1;
};

/**
 * Outcome classification of one simulation run.
 *
 * Every run ends in exactly one of these states; consumers must treat
 * anything but Ok as "do not trust the point estimates":
 *  - Ok: the run measured its full post-warm-up quota.
 *  - Saturated: queues crossed the saturation limit; the system is
 *    beyond its stability knee (tables render "inf").
 *  - Truncated: the maxEvents safety valve (or an emptied calendar)
 *    stopped the run after some post-warm-up completions but before
 *    the measurement quota; estimates are under-sampled.
 *  - NoData: the run ended with zero post-warm-up completions; there
 *    is no estimate at all (tables render "n/a", metrics are NaN).
 */
enum class RunStatus
{
    Ok,
    Saturated,
    Truncated,
    NoData,
};

/** Lower-case wire name of a status ("ok", "saturated", ...). */
const char *toString(RunStatus status);

/** Parse a wire name back into a status; throws FatalError on junk. */
RunStatus parseRunStatus(const std::string &name);

/** Summary of one simulation run. */
struct SimResult
{
    /** How the run ended; anything but Ok taints the estimates. */
    RunStatus status = RunStatus::Ok;
    bool saturated = false;     ///< aborted due to unbounded queues
    double meanDelay = 0.0;     ///< d: mean wait before connection
    double delayHalfWidth = 0.0; ///< 95% CI half-width on d
    double normalizedDelay = 0.0; ///< mu_s * d (the figures' y-axis)
    double meanResponse = 0.0;
    double meanRoutingAttempts = 0.0;
    double meanBoxesTraversed = 0.0;
    /** (max - min) per-processor mean delay over the overall mean. */
    double delayImbalance = 0.0;
    /** Time-averaged number of tasks waiting in processor queues.
     *  Little's law ties it to the delay: E[Nq] = p*lambda*d. */
    double timeAvgQueue = 0.0;
    /** Tail of the queueing-delay distribution. */
    double delayP95 = 0.0;
    double delayP99 = 0.0;
    /** Fraction of tasks served without waiting (PASTA checkpoint). */
    double fractionNoWait = 0.0;
    std::uint64_t completedTasks = 0;
    /** Post-warm-up completions actually measured (0 implies NoData). */
    std::uint64_t countedTasks = 0;
    std::uint64_t rejections = 0;
    double simulatedTime = 0.0;
    /** Event-kernel counters for the run (observability layer).  In a
     *  partitioned run these are the exact cross-shard aggregate at
     *  the serial stop point (arenaBytes is the sum of the per-shard
     *  high-water marks, so it alone may differ from a serial run). */
    des::KernelCounters kernel;
    /** Calendar shards that executed the run (1 = serial oracle). */
    std::size_t shardsUsed = 1;

    /** True when the point estimates are trustworthy. */
    bool ok() const { return status == RunStatus::Ok; }
};

/**
 * Assemble a SimResult from a finished run's collected state.  Shared
 * by the serial run loop and the partitioned merge driver so the two
 * paths produce bit-identical records from identical observations.
 * Closes @p queueTrace at @p simulatedTime.
 */
SimResult assembleSimResult(const workload::MetricsCollector &metrics,
                            TimeWeighted &queueTrace, bool saturated,
                            const SimOptions &options,
                            const workload::WorkloadParams &params,
                            double simulatedTime,
                            const des::KernelCounters &kernel);

/** Base class: processors, queues, arrivals, measurement, run loop. */
class SystemSimulation
{
  public:
    /**
     * @param shard when capturing (shard.log != nullptr) this instance
     *        models one shard of a partitioned run: observations go to
     *        the shard log instead of local reduction, and RNG streams
     *        / reported processor indices are offset to match the
     *        serial run's global numbering.
     */
    SystemSimulation(std::size_t processors,
                     const workload::WorkloadParams &params,
                     const SimOptions &options,
                     const ShardContext &shard = {});
    virtual ~SystemSimulation() = default;

    SystemSimulation(const SystemSimulation &) = delete;
    SystemSimulation &operator=(const SystemSimulation &) = delete;

    /** Execute the run and collect the result (serial mode only). */
    SimResult run();

    std::size_t processors() const { return queues_.processors(); }
    const workload::WorkloadParams &params() const { return params_; }

    /** @name Partitioned-driver interface (capture mode only)
     *  The merge driver primes the arrival streams, then steps the
     *  calendar window by window and reads the shard log; the run loop
     *  and result assembly live in the driver (partitioned_run.hpp). */
    ///@{
    /** Schedule the initial arrival on every processor. */
    void primePartitionedRun();
    /** The shard's event calendar, which the driver steps. */
    des::Simulator &partitionKernel() { return sim_; }
    /**
     * True once this shard hit a terminal condition (its local queue
     * crossed the saturation limit, or the model called
     * noteSaturated()); the driver must stop executing it -- the
     * global stop point provably lies at or before the parking event.
     */
    bool captureParked() const { return captureParked_; }
    ///@}

#if RSIN_CONTRACTS_ENABLED
    /**
     * TEST ONLY (contract builds): skew the queued-task counter so the
     * task-conservation contract is violated, proving it fires.
     */
    void debugCorruptConservationForTest() { ++queuedNow_; }
#endif

  protected:
    /**
     * A task just joined @p proc's queue: start every transmission the
     * arrival permits in @p proc's network.
     */
    virtual void onArrival(std::size_t proc) = 0;

    /** Simulated-time access for subclasses. */
    des::Simulator &sim() { return sim_; }

    /** Is a task waiting at this processor while the processor is idle? */
    bool
    processorReady(std::size_t proc) const
    {
        RSIN_ASSERT(proc < processors(), "processorReady: bad processor");
        return (ready_[proc / 64] >> (proc % 64)) & 1U;
    }

    /**
     * The lowest ready processor in [@p from, @p last), or @p last if
     * there is none.  Dispatch loops walk the ready set with it:
     * `for (p = nextReady(first, last); p < last;
     *      p = nextReady(p + 1, last))`.
     */
    std::size_t
    nextReady(std::size_t from, std::size_t last) const
    {
        RSIN_ASSERT(last <= processors(), "nextReady: bad range");
        if (from >= last)
            return last;
        std::size_t word = from / 64;
        std::uint64_t bits =
            ready_[word] & (~std::uint64_t{0} << (from % 64));
        while (bits == 0) {
            if (++word * 64 >= last)
                return last;
            bits = ready_[word];
        }
        const std::size_t proc =
            word * 64 + static_cast<std::size_t>(std::countr_zero(bits));
        return proc < last ? proc : last;
    }

    /** Oldest waiting task at @p proc (valid only if non-empty queue);
     *  the reference lasts until the next arrival anywhere. */
    const workload::Task &headTask(std::size_t proc) const;

    bool queueEmpty(std::size_t proc) const;
    std::size_t queueLength(std::size_t proc) const;
    std::size_t totalQueued() const;

    /**
     * Pop the head task of @p proc and mark the processor busy
     * transmitting; stamps transmitStart = now.
     */
    workload::Task beginTransmission(std::size_t proc);

    /** Mark the processor idle again (transmission finished); the
     *  caller then re-dispatches the processor's network. */
    void endTransmission(std::size_t proc);

    /** Record a finished task; stamps serviceEnd = now. */
    void completeTask(workload::Task task);

    /** Record a routing rejection (for network statistics). */
    void
    noteRejection()
    {
        if (shard_.capturing())
            shard_.log->rejections.push_back({sim_.now(), sim_.fired()});
        else
            metrics_->taskRejected();
    }

    /**
     * A master RNG for the single-network models (the packet and
     * multi-resource systems).  A model with several networks draws
     * from networkRng instead: one shared stream would hand its
     * numbers to the networks in calendar order, which sharding
     * changes.
     */
    Rng &rng() { return rng_; }

    /**
     * A new routing stream for network @p net of this instance, whose
     * networks serve @p inputsPerNet processors each.  It is seeded from
     * the run seed and the network's global index, so a network draws
     * the same numbers in the serial run and in whichever shard owns
     * it.
     */
    Rng networkRng(std::size_t net, std::size_t inputsPerNet) const;

    /** Subclass-detected saturation (e.g. auxiliary queues growing). */
    void
    noteSaturated()
    {
        if (shard_.capturing()) {
            shard_.log->satEvents.push_back({sim_.now(), sim_.fired()});
            captureParked_ = true;
        } else {
            saturated_ = true;
        }
    }

    /** The configured queue-size saturation threshold. */
    std::size_t saturationLimit() const
    {
        return options_.saturationQueueLimit;
    }

  private:
    void scheduleArrival(std::size_t proc);
    bool done() const;
    /** Completions so far (log length in capture mode). */
    std::uint64_t completedCount() const;
    /**
     * Contract: tasks are conserved at every sample point --
     * issued == completed + queued + in-flight -- the cached queue
     * count agrees with the queues themselves, and the ready set holds
     * exactly the idle processors with a waiting task.  In-flight spans
     * beginTransmission() to completeTask(): transmission, routing
     * retries and resource service, where the task travels inside
     * event captures that no container tracks.
     */
    void checkConservation() const;
    /** Set or clear @p proc's bit in the ready set. */
    void
    setReady(std::size_t proc, bool ready)
    {
        const std::uint64_t bit = std::uint64_t{1} << (proc % 64);
        if (ready)
            ready_[proc / 64] |= bit;
        else
            ready_[proc / 64] &= ~bit;
    }

    /**
     * The processors' FIFO queues of waiting tasks, linked through one
     * shared node pool.  Freed nodes are reused first, so the nodes in
     * use stay few and cache-resident however many processors there
     * are; a std::deque per processor allocates a 512-byte block up
     * front, and thousands of those no longer fit in L2.
     */
    class TaskQueues
    {
      public:
        explicit TaskQueues(std::size_t processors) : queues_(processors) {}

        std::size_t processors() const { return queues_.size(); }
        std::size_t size(std::size_t proc) const { return queues_[proc].size; }
        /** Tasks in all queues (walks every queue). */
        std::size_t total() const;
        /** Oldest task at @p proc; the queue must not be empty.  A
         *  push may move the nodes, so the reference lasts until then. */
        const workload::Task &
        front(std::size_t proc) const
        {
            return nodes_[queues_[proc].head].task;
        }
        void push(std::size_t proc, workload::Task task);
        /** Remove and return the oldest task at @p proc. */
        workload::Task pop(std::size_t proc);

      private:
        static constexpr std::uint32_t kNil = UINT32_MAX;
        struct Queue
        {
            std::uint32_t head = kNil;
            std::uint32_t tail = kNil;
            std::uint32_t size = 0;
        };
        struct Node
        {
            workload::Task task;
            std::uint32_t next = kNil;
        };

        std::vector<Queue> queues_;
        std::vector<Node> nodes_;
        std::uint32_t freeNode_ = kNil; ///< head of the free-node list
    };

    workload::WorkloadParams params_;
    SimOptions options_;
    des::Simulator sim_;
    Rng rng_;
    std::vector<workload::TaskSource> sources_;
    TaskQueues queues_;
    std::vector<bool> transmitting_;
    /** Ready set: bit p = !transmitting_[p] && queues_.size(p) > 0. */
    std::vector<std::uint64_t> ready_;
    std::unique_ptr<workload::MetricsCollector> metrics_;
    std::uint64_t nextTaskId_ = 0;
    /** Tasks between beginTransmission() and completeTask(). */
    std::uint64_t inFlight_ = 0;
    std::size_t queuedNow_ = 0;
    TimeWeighted queueTrace_;
    bool saturated_ = false;
    ShardContext shard_;
    bool captureParked_ = false;
    /** Lifetime completions in capture mode (log clears per window). */
    std::uint64_t captureCompleted_ = 0;
};

} // namespace rsin
