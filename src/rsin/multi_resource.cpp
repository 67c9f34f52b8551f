#include "multi_resource.hpp"

#include <algorithm>
#include <numeric>

#include "common/error.hpp"

namespace rsin {

MultiResourceCrossbarSystem::MultiResourceCrossbarSystem(
    const SystemConfig &config, const workload::WorkloadParams &params,
    const SimOptions &options, const MultiResourceOptions &multi)
    : SystemSimulation(config.processors, params, options), multi_(multi)
{
    config.validate();
    RSIN_REQUIRE(config.network == NetworkClass::Crossbar,
                 "MultiResourceCrossbarSystem: config must be XBAR, "
                 "got ", config.str());
    RSIN_REQUIRE(config.networks == 1,
                 "MultiResourceCrossbarSystem: one network instance "
                 "only (partitions would not share resources)");
    RSIN_REQUIRE(multi_.resourcesPerRequest >= 1,
                 "MultiResourceCrossbarSystem: need k >= 1");
    RSIN_REQUIRE(multi_.resourcesPerRequest <= config.totalResources(),
                 "MultiResourceCrossbarSystem: k exceeds the pool");
    freeRes_.assign(config.outputsPerNet, config.resourcesPerPort);
    busBusy_.assign(config.outputsPerNet, false);
    pending_.resize(config.processors);
    totalPool_ = config.totalResources();
}

bool
MultiResourceCrossbarSystem::admissionAllows() const
{
    if (multi_.policy != AcquisitionPolicy::AdmissionControl)
        return true;
    // Banker's rule for identical units: the total demand of admitted
    // tasks (acquiring or serving -- serving tasks still hold their k
    // units) must never exceed the pool, so some admitted task can
    // always obtain its remainder and finish.
    return (acquirers_ + inService_ + 1) * multi_.resourcesPerRequest <=
           totalPool_;
}

bool
MultiResourceCrossbarSystem::tryAcquireNext(std::size_t proc)
{
    Pending &pending = pending_[proc];
    RSIN_ASSERT(pending.active && !pending.transmitting,
                "tryAcquireNext: bad state");

    if (multi_.policy == AcquisitionPolicy::AllOrNothing) {
        if (pending.heldBuses.empty() && pending.reserved.empty()) {
            // Reserve the whole set atomically (resources, not buses).
            std::size_t available = 0;
            for (std::size_t r : freeRes_)
                available += r;
            if (available < multi_.resourcesPerRequest)
                return false;
            std::size_t need = multi_.resourcesPerRequest;
            for (std::size_t bus = 0; bus < freeRes_.size() && need > 0;
                 ++bus) {
                const std::size_t take = std::min(freeRes_[bus], need);
                freeRes_[bus] -= take;
                need -= take;
                for (std::size_t i = 0; i < take; ++i)
                    pending.reserved.push_back(bus);
            }
        }
        // Transfer the next reserved resource whose bus is idle.
        for (std::size_t i = 0; i < pending.reserved.size(); ++i) {
            const std::size_t bus = pending.reserved[i];
            if (busBusy_[bus])
                continue;
            pending.reserved.erase(pending.reserved.begin() +
                                   static_cast<std::ptrdiff_t>(i));
            startTransfer(proc, bus, /*already_reserved=*/true);
            return true;
        }
        return false;
    }

    // Greedy / AdmissionControl: take the lowest free resource whose
    // bus is idle.
    for (std::size_t bus = 0; bus < freeRes_.size(); ++bus) {
        if (freeRes_[bus] > 0 && !busBusy_[bus]) {
            startTransfer(proc, bus, /*already_reserved=*/false);
            return true;
        }
    }
    return false;
}

void
MultiResourceCrossbarSystem::startTransfer(std::size_t proc,
                                           std::size_t bus,
                                           bool already_reserved)
{
    Pending &pending = pending_[proc];
    if (!already_reserved)
        --freeRes_[bus];
    busBusy_[bus] = true;
    pending.heldBuses.push_back(bus);
    pending.transmitting = true;
    // Each transfer has its own transmission-time sample.
    const double duration = rng().exponential(params().muN);
    sim().schedule(duration, [this, proc, bus] {
        Pending &p = pending_[proc];
        busBusy_[bus] = false;
        p.transmitting = false;
        if (p.heldBuses.size() == multi_.resourcesPerRequest)
            beginServicePhase(proc);
        dispatchNetwork();
    });
}

void
MultiResourceCrossbarSystem::beginServicePhase(std::size_t proc)
{
    Pending &pending = pending_[proc];
    RSIN_ASSERT(pending.reserved.empty(),
                "beginServicePhase: undelivered reservations");
    RSIN_ASSERT(pending.acquiring, "beginServicePhase: not acquiring");
    pending.acquiring = false;
    --acquirers_;
    pending.task.transmitEnd = sim().now();
    ++inService_;
    // The RSIN disconnection property: the processor is released as
    // soon as the last transfer completes; the resources keep serving.
    // Move the task and its holdings out of the per-processor slot so
    // the processor can admit its next task immediately.
    workload::Task task = std::move(pending.task);
    std::vector<std::size_t> held = std::move(pending.heldBuses);
    pending.heldBuses.clear();
    pending.active = false;
    endTransmission(proc);
    sim().schedule(task.serviceTime, [this, task = std::move(task),
                                      held = std::move(held)]() mutable {
        --inService_;
        for (std::size_t bus : held)
            ++freeRes_[bus];
        completeTask(std::move(task));
        dispatchNetwork();
    });
}

void
MultiResourceCrossbarSystem::releaseAll(Pending &pending)
{
    for (std::size_t bus : pending.heldBuses)
        ++freeRes_[bus];
    for (std::size_t bus : pending.reserved)
        ++freeRes_[bus];
    pending.heldBuses.clear();
    pending.reserved.clear();
}

bool
MultiResourceCrossbarSystem::checkDeadlock()
{
    // A true deadlock: at least one task is mid-acquisition holding
    // resources, nothing is transmitting or in service anywhere, and
    // no blocked task can proceed.  Only arrivals remain on the
    // calendar then, and arrivals never free resources.
    if (inService_ > 0)
        return false;
    bool any_blocked_holder = false;
    for (auto &p : pending_) {
        if (!p.active)
            continue;
        if (p.transmitting)
            return false; // progress still in flight
        if (!p.heldBuses.empty() || !p.reserved.empty())
            any_blocked_holder = true;
    }
    if (!any_blocked_holder)
        return false;
    // Could anyone make progress right now?  (dispatchNetwork() just
    // tried and failed before calling us, so holders are genuinely
    // stuck.)
    ++stats_.deadlocksDetected;
    if (multi_.recovery == DeadlockRecovery::Abort) {
        noteSaturated();
        return false;
    }
    // Rollback: the victim is the *highest*-index holder, so its freed
    // units flow to the lowest-index waiter (which the dispatch loop
    // serves first).  A lowest-index victim would immediately re-grab
    // its own units and livelock the recovery.
    for (auto it = pending_.rbegin(); it != pending_.rend(); ++it) {
        Pending &p = *it;
        if (p.active && (!p.heldBuses.empty() || !p.reserved.empty())) {
            releaseAll(p);
            ++stats_.rollbacks;
            ++p.task.routingAttempts;
            return true; // freed units: re-run the dispatch loop
        }
    }
    return false;
}

void
MultiResourceCrossbarSystem::onArrival(std::size_t)
{
    dispatchNetwork();
}

void
MultiResourceCrossbarSystem::dispatchNetwork()
{
    for (;;) {
        bool progress = true;
        while (progress) {
            progress = false;
            for (std::size_t proc = 0; proc < pending_.size(); ++proc) {
                Pending &pending = pending_[proc];
                if (pending.active) {
                    if (!pending.transmitting && pending.acquiring)
                        progress |= tryAcquireNext(proc);
                    continue;
                }
                if (!processorReady(proc) || !admissionAllows())
                    continue;
                // Admit the head task and start acquiring.
                pending.task = beginTransmission(proc);
                pending.task.routingAttempts = 1;
                pending.active = true;
                pending.acquiring = true;
                ++acquirers_;
                pending.heldBuses.clear();
                pending.reserved.clear();
                pending.transmitting = false;
                progress = true;
            }
        }
        if (multi_.policy != AcquisitionPolicy::Greedy ||
            !checkDeadlock())
            break;
        // A rollback freed resources; let the survivors claim them.
    }
}

} // namespace rsin
