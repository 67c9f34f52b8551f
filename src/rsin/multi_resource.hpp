#pragma once

/**
 * @file
 * Multi-resource requests -- the extension the paper defers:
 * "deadlocks may occur when multiple resources are requested by a
 * request, and distributed resolution of deadlocks may have high
 * overhead.  A complete solution is beyond the scope of this paper."
 * (Section I; the follow-up is Juang & Wah [35].)
 *
 * This model studies the problem on the crossbar (the network itself
 * is nonblocking, isolating the resource-acquisition dynamics).  Every
 * task needs @c resourcesPerRequest resources, acquired by one of
 * three disciplines:
 *
 *  - Greedy: claim any free resource, hold, and wait for the rest
 *    (hold-and-wait; deadlocks.  The simulator detects a true
 *    deadlock -- every held resource belongs to a waiting task and
 *    nothing is in flight -- and either aborts the run or rolls a
 *    victim back);
 *  - AdmissionControl: at most floor(m/k) tasks may acquire at once
 *    (the Banker's-algorithm specialization for identical units:
 *    admitted demand never exceeds the pool, so some acquirer can
 *    always finish -- deadlock-free by construction);
 *  - AllOrNothing: reserve the whole set atomically before the first
 *    transfer (no hold-and-wait; trades utilization for safety).
 *
 * The processor transmits the task once per acquired resource (it has
 * one port: transfers are sequential), then all resources serve
 * simultaneously and release together.
 */

#include <cstdint>
#include <vector>

#include "rsin/system.hpp"

namespace rsin {

/** Acquisition discipline for multi-resource requests. */
enum class AcquisitionPolicy
{
    Greedy,
    AdmissionControl,
    AllOrNothing,
};

/** What to do when the Greedy discipline deadlocks. */
enum class DeadlockRecovery
{
    Abort,    ///< flag the run and stop (deadlock == saturation)
    Rollback, ///< victim releases everything and re-queues
};

/** Knobs for the multi-resource model. */
struct MultiResourceOptions
{
    std::size_t resourcesPerRequest = 2;
    AcquisitionPolicy policy = AcquisitionPolicy::AdmissionControl;
    DeadlockRecovery recovery = DeadlockRecovery::Abort;
};

/** Extra outcome counters of a multi-resource run. */
struct MultiResourceStats
{
    std::uint64_t deadlocksDetected = 0;
    std::uint64_t rollbacks = 0;
};

/** Crossbar system whose tasks each need several resources. */
class MultiResourceCrossbarSystem : public SystemSimulation
{
  public:
    MultiResourceCrossbarSystem(const SystemConfig &config,
                                const workload::WorkloadParams &params,
                                const SimOptions &options,
                                const MultiResourceOptions &multi);

    const MultiResourceStats &multiStats() const { return stats_; }

  protected:
    void onArrival(std::size_t proc) override;

  private:
    /** Start everything the state permits (the model has one network,
     *  so every event re-dispatches all of it). */
    void dispatchNetwork();

    /** A task mid-acquisition at its processor. */
    struct Pending
    {
        workload::Task task;
        std::vector<std::size_t> heldBuses; ///< delivered resources
        std::vector<std::size_t> reserved;  ///< AllOrNothing pre-claims
        bool transmitting = false;
        bool active = false;
        bool acquiring = false;
    };

    bool admissionAllows() const;
    bool tryAcquireNext(std::size_t proc);
    void startTransfer(std::size_t proc, std::size_t bus,
                       bool already_reserved);
    void beginServicePhase(std::size_t proc);
    void releaseAll(Pending &pending);
    bool checkDeadlock();

    std::vector<std::size_t> freeRes_;  ///< unreserved resources per bus
    std::vector<bool> busBusy_;         ///< transmission in progress
    std::vector<Pending> pending_;      ///< per processor
    std::size_t inService_ = 0;         ///< tasks currently being served
    std::size_t acquirers_ = 0;         ///< tasks mid-acquisition
    std::size_t totalPool_ = 0;         ///< total resources m
    MultiResourceOptions multi_;
    MultiResourceStats stats_;
};

} // namespace rsin
