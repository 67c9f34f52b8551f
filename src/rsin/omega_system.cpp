#include "omega_system.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace rsin {

OmegaSystem::OmegaSystem(const SystemConfig &config,
                         const workload::WorkloadParams &params,
                         const SimOptions &options,
                         const OmegaOptions &omega_options,
                         const ShardContext &shard)
    : SystemSimulation(config.processors, params, options, shard),
      omegaOptions_(omega_options)
{
    config.validate();
    RSIN_REQUIRE(config.network == NetworkClass::Omega ||
                     config.network == NetworkClass::Cube,
                 "OmegaSystem: config is not a multistage system: ",
                 config.str());
    const auto kind = config.network == NetworkClass::Omega
                          ? topology::MultistageKind::Omega
                          : topology::MultistageKind::IndirectCube;

    inputsPerNet_ = config.inputsPerNet;
    topo_ = std::make_unique<topology::MultistageNetwork>(
        kind, config.inputsPerNet);
    router_ =
        std::make_unique<sched::OmegaRouter>(*topo_, omegaOptions_.policy);
    const std::size_t links = topo_->stages() + 1;
    nets_.resize(config.networks);
    for (std::size_t n = 0; n < nets_.size(); ++n) {
        Net &net = nets_[n];
        net.firstProcessor = n * config.inputsPerNet;
        net.rng = networkRng(n, config.inputsPerNet);
        net.circuit = std::make_unique<topology::CircuitState>(*topo_);
        // Typed layout: the paper leaves the number-and-placement
        // question open; two natural strategies are provided and the
        // resource_placement bench compares them.
        std::vector<std::vector<std::size_t>> types(config.outputsPerNet);
        const std::size_t total_res =
            config.outputsPerNet * config.resourcesPerPort;
        std::size_t deal = 0;
        for (auto &port_types : types) {
            port_types.resize(config.resourcesPerPort);
            for (auto &t : port_types) {
                switch (omegaOptions_.placement) {
                  case TypePlacement::RoundRobin:
                    t = deal % params.resourceTypes;
                    break;
                  case TypePlacement::Clustered:
                    // Contiguous bands: resources 0..k of the flattened
                    // layout get type 0, the next band type 1, ...
                    t = deal * params.resourceTypes / total_res;
                    break;
                }
                ++deal;
            }
        }
        net.pool = std::make_unique<sched::ResourcePool>(std::move(types));
        if (omegaOptions_.scheduling == OmegaScheduling::Distributed)
            net.avail = std::make_unique<sched::AvailabilityRegisters>(
                *net.circuit, *net.pool);
        net.circuits.resize(config.inputsPerNet * links);
        if (omegaOptions_.modelReturnNetwork) {
            net.returnCircuit =
                std::make_unique<topology::CircuitState>(*topo_);
            net.returnQueues.resize(config.outputsPerNet);
            net.returnBusy.assign(config.outputsPerNet, false);
            net.returnCircuits.resize(config.outputsPerNet * links);
        }
    }
    if (omegaOptions_.scheduling == OmegaScheduling::DistributedClocked) {
        RSIN_REQUIRE(params.resourceTypes == 1,
                     "OmegaSystem: the clocked-box scheduler handles a "
                     "single resource type");
        clocked_ = std::make_unique<sched::ClockedOmegaScheduler>(
            *topo_, omegaOptions_.policy);
    }
}

void
OmegaSystem::onArrival(std::size_t proc)
{
    dispatchNet(nets_[proc / inputsPerNet_]);
}

std::optional<sched::RouteResult>
OmegaSystem::scheduleRequest(Net &net, std::size_t input, std::size_t type)
{
    switch (omegaOptions_.scheduling) {
      case OmegaScheduling::DistributedClocked:
        RSIN_PANIC("scheduleRequest: clocked mode dispatches in batches");
      case OmegaScheduling::Distributed:
        return router_->tryRoute(*net.avail, *net.circuit, *net.pool,
                                 input, net.rng, type);
      case OmegaScheduling::AddressRandomFree: {
        // Centralized scheduler: pick a random output that has a free
        // resource of the right type, then route by destination tag.
        std::vector<std::size_t> frees;
        for (std::size_t port = 0; port < net.pool->ports(); ++port)
            if (net.pool->hasFree(port, type))
                frees.push_back(port);
        if (frees.empty())
            return std::nullopt;
        const std::size_t dst = frees[net.rng.uniformInt(
            static_cast<std::uint64_t>(frees.size()))];
        return router_->tryRouteAddressed(*net.circuit, *net.pool,
                                          input, dst, type);
      }
      case OmegaScheduling::AddressFirstFree: {
        for (std::size_t port = 0; port < net.pool->ports(); ++port) {
            if (!net.pool->hasFree(port, type))
                continue;
            return router_->tryRouteAddressed(*net.circuit, *net.pool,
                                              input, port, type);
        }
        return std::nullopt;
      }
    }
    RSIN_PANIC("scheduleRequest: unknown scheduling mode");
}

void
OmegaSystem::dispatchNetClocked(Net &net)
{
    // Batch semantics: all waiting processors launch into the clocked
    // fabric together and contend through stale status, rejects and
    // reroutes; the round's ticks are instantaneous in simulated time
    // (assumption (c): negligible propagation delay).
    const std::size_t last = net.firstProcessor + topo_->size();
    std::vector<std::size_t> sources;
    for (std::size_t proc = nextReady(net.firstProcessor, last);
         proc < last; proc = nextReady(proc + 1, last))
        sources.push_back(proc - net.firstProcessor);
    if (sources.empty())
        return;
    const auto round = clocked_->scheduleRound(*net.circuit, *net.pool,
                                               sources, net.rng);
    for (const auto &outcome : round.outcomes) {
        if (!outcome.served) {
            noteRejection();
            continue;
        }
        sched::RouteResult route;
        route.path = outcome.path;
        route.outputPort = outcome.outputPort;
        route.resource = outcome.resource;
        route.boxesTraversed = outcome.boxesVisited;
        startOn(net, net.firstProcessor + outcome.src, route);
    }
}

void
OmegaSystem::dispatchNet(Net &net)
{
    if (omegaOptions_.scheduling == OmegaScheduling::DistributedClocked) {
        dispatchNetClocked(net);
        return;
    }
    const std::size_t last = net.firstProcessor + topo_->size();
    for (std::size_t proc = nextReady(net.firstProcessor, last);
         proc < last; proc = nextReady(proc + 1, last)) {
        const std::size_t type = headTask(proc).resourceType;
        auto route = scheduleRequest(net, proc - net.firstProcessor, type);
        if (!route) {
            noteRejection();
            continue;
        }
        startOn(net, proc, *route);
    }
}

void
OmegaSystem::startOn(Net &net, std::size_t proc,
                     const sched::RouteResult &route)
{
    workload::Task task = beginTransmission(proc);
    task.routingAttempts = 1;
    task.resource = route.outputPort;
    task.boxesTraversed =
        static_cast<std::uint32_t>(route.boxesTraversed);
    std::copy(route.path.begin(), route.path.end(),
              slot(net.circuits, proc - net.firstProcessor).begin());
    // Capture only what the completion reads of the route, so the
    // callback fits the kernel's large inline slot.
    sim().schedule(task.transmitTime, [this, &net, proc,
                                       port = route.outputPort,
                                       resource = route.resource,
                                       task = std::move(task)]() mutable {
        // Data delivered: tear the circuit down; the resource keeps
        // serving after the disconnection (the RSIN property).
        net.circuit->release(slot(net.circuits, proc - net.firstProcessor));
        if (net.avail)
            net.avail->refresh(port);
        endTransmission(proc);
        task.transmitEnd = sim().now();
        sim().schedule(task.serviceTime,
                       [this, &net, resource,
                        task = std::move(task)]() mutable {
                           net.pool->release(resource);
                           if (net.avail)
                               net.avail->refresh(
                                   resource.port,
                                   net.pool->typeOf(resource.port,
                                                    resource.index));
                           finishService(net, std::move(task));
                           dispatchNet(net);
                       });
        dispatchNet(net);
    });
}

std::span<std::uint32_t>
OmegaSystem::slot(std::vector<std::uint32_t> &circuits, std::size_t i) const
{
    const std::size_t links = topo_->stages() + 1;
    return std::span<std::uint32_t>(circuits).subspan(i * links, links);
}

void
OmegaSystem::finishService(Net &net, workload::Task task)
{
    if (!omegaOptions_.modelReturnNetwork) {
        completeTask(std::move(task));
        return;
    }
    // Queue the result at its output port's controller; the mirror
    // network carries one result per port at a time back to the
    // originating processor (destination known, tag routing).
    net.returnQueues[task.resource].push_back(std::move(task));
    std::size_t backlog = 0;
    for (const auto &q : net.returnQueues)
        backlog += q.size();
    if (backlog > saturationLimit())
        noteSaturated(); // the return path itself is the bottleneck
    dispatchReturns(net);
}

void
OmegaSystem::dispatchReturns(Net &net)
{
    const double mu_r = omegaOptions_.muReturn > 0.0
                            ? omegaOptions_.muReturn
                            : params().muN;
    for (std::size_t port = 0; port < net.returnQueues.size(); ++port) {
        if (net.returnBusy[port] || net.returnQueues[port].empty())
            continue;
        const workload::Task &head = net.returnQueues[port].front();
        const std::size_t dst = head.processor - net.firstProcessor;
        const topology::LinkPath path = topo_->path(port, dst);
        if (!net.returnCircuit->pathFree(path))
            continue; // retried when a return circuit releases
        net.returnCircuit->claim(path);
        std::copy(path.begin(), path.end(),
                  slot(net.returnCircuits, port).begin());
        net.returnBusy[port] = true;
        workload::Task task = std::move(net.returnQueues[port].front());
        net.returnQueues[port].pop_front();
        const double duration = net.rng.exponential(mu_r);
        sim().schedule(duration, [this, &net, port,
                                  task = std::move(task)]() mutable {
            net.returnCircuit->release(slot(net.returnCircuits, port));
            net.returnBusy[port] = false;
            completeTask(std::move(task));
            dispatchReturns(net);
        });
    }
}

} // namespace rsin
