#include "omega_boxes.hpp"

#include <algorithm>
#include <array>

#include "common/error.hpp"

namespace rsin {
namespace sched {

ClockedOmegaScheduler::ClockedOmegaScheduler(
    const topology::MultistageNetwork &net, RoutingPolicy policy)
    : net_(&net), policy_(policy)
{
}

BoxedRoundResult
ClockedOmegaScheduler::scheduleRound(
    topology::CircuitState &circuit, ResourcePool &pool,
    const std::vector<std::size_t> &sources, Rng &rng,
    std::size_t max_ticks)
{
    const std::size_t n = net_->size();
    const std::size_t stages = net_->stages();
    RSIN_REQUIRE(pool.ports() == n, "scheduleRound: pool/network mismatch");
    for (std::size_t src : sources)
        RSIN_REQUIRE(src < n, "scheduleRound: source out of range");
    if (max_ticks == 0)
        max_ticks = 500 * (stages + 1);

    BoxedRoundResult result;
    result.outcomes.resize(sources.size());
    for (std::size_t i = 0; i < sources.size(); ++i)
        result.outcomes[i].src = sources[i];

    // avail_reg[s][box][port]: the box's registered belief about free
    // resources reachable through that port.  emitted[b][l]: the status
    // presented on boundary-b link l at the end of the last tick (what
    // the box above will latch next tick) -- one stage of staleness per
    // tick, as in the hardware.
    std::vector<std::vector<std::array<std::size_t, 2>>> avail_reg(
        stages, std::vector<std::array<std::size_t, 2>>(
                    net_->boxesPerStage(), {0, 0}));
    std::vector<std::vector<std::size_t>> emitted(
        stages + 1, std::vector<std::size_t>(n, 0));

    auto refresh_status = [&]() {
        for (std::size_t l = 0; l < n; ++l) {
            emitted[stages][l] =
                circuit.segmentFree(stages, l) ? pool.freeCount(l) : 0;
        }
        // Latch last tick's downstream status into the registers...
        for (std::size_t s = 0; s < stages; ++s) {
            for (std::size_t b = 0; b < net_->boxesPerStage(); ++b) {
                for (std::size_t q = 0; q < 2; ++q) {
                    const std::size_t out = net_->outputLink(b, q);
                    avail_reg[s][b][q] = circuit.segmentFree(s + 1, out)
                                             ? emitted[s + 1][out]
                                             : 0;
                }
            }
        }
        // ...then publish each stage's combined status upstream.
        for (std::size_t s = 0; s < stages; ++s) {
            for (std::size_t l = 0; l < n; ++l) {
                const std::size_t b = net_->boxOf(s, l);
                emitted[s][l] = avail_reg[s][b][0] + avail_reg[s][b][1];
            }
        }
    };

    // Phase 1 warm-up: let status flow from the resources all the way
    // to the processors before any request launches.
    for (std::size_t t = 0; t <= stages; ++t)
        refresh_status();

    std::vector<ActiveRequest> active;
    std::vector<bool> pending(sources.size(), true);

    auto pick_port = [&](std::size_t s, std::size_t box,
                         std::uint8_t tried) -> std::optional<std::size_t> {
        std::size_t cand[2];
        std::size_t n_cand = 0;
        for (std::size_t q = 0; q < 2; ++q) {
            if (tried & (1u << q))
                continue;
            const std::size_t out = net_->outputLink(box, q);
            if (!circuit.segmentFree(s + 1, out))
                continue;
            if (avail_reg[s][box][q] == 0)
                continue;
            cand[n_cand++] = q;
        }
        if (n_cand == 0)
            return std::nullopt;
        if (n_cand == 1)
            return cand[0];
        switch (policy_) {
          case RoutingPolicy::MostResources:
            return avail_reg[s][box][1] > avail_reg[s][box][0]
                       ? std::size_t{1}
                       : std::size_t{0};
          case RoutingPolicy::PreferUpper:
            return std::size_t{0};
          case RoutingPolicy::RandomTie:
            return static_cast<std::size_t>(
                rng.uniformInt(std::uint64_t{2}));
        }
        RSIN_PANIC("pick_port: unknown policy");
    };

    std::size_t tick = 0;
    std::size_t idle_ticks = 0;
    for (; tick < max_ticks; ++tick) {
        refresh_status();

        // Rejects are serviced before queries (Fig. 10 priority), and
        // within a class the order is deterministic by source index.
        std::sort(active.begin(), active.end(),
                  [](const ActiveRequest &a, const ActiveRequest &b) {
                      if (a.retreating != b.retreating)
                          return a.retreating > b.retreating;
                      return a.src < b.src;
                  });

        std::vector<ActiveRequest> next_active;
        for (auto &req : active) {
            BoxedRequestOutcome &outcome = result.outcomes[req.index];

            if (req.retreating) {
                // Retreat one stage: free the deepest claimed segment
                // and re-arrive at the upstream box, whose tried-port
                // mask already records the failed direction.
                RSIN_ASSERT(req.position >= 1, "retreat from entry");
                circuit.releaseSegment(req.position,
                                       req.path[req.position]);
                req.path.pop_back();
                --req.position;
                req.retreating = false;
                ++outcome.boxesVisited;
                next_active.push_back(std::move(req));
                continue;
            }

            if (req.position == stages) {
                // Arrived at an output port: resource-found (C) or a
                // stale-status bounce (J from the controller).
                const std::size_t port = req.path.back();
                if (pool.freeCount(port) > 0) {
                    outcome.served = true;
                    outcome.outputPort = port;
                    outcome.resource = pool.claim(port);
                    outcome.path = req.path;
                    ++result.served;
                    continue; // path stays claimed for the caller
                }
                req.retreating = true;
                ++outcome.rejects;
                ++result.totalRejects;
                next_active.push_back(std::move(req));
                continue;
            }

            // Forward query at stage req.position.
            const std::size_t s = req.position;
            const std::size_t box = net_->boxOf(s, req.path.back());
            const auto port = pick_port(s, box, req.triedPorts[s]);
            if (!port) {
                if (s == 0) {
                    // Rejected all the way back to the processor; the
                    // request re-queues and may relaunch later.
                    circuit.releaseSegment(0, req.path[0]);
                    ++outcome.rejects;
                    ++result.totalRejects;
                    pending[req.index] = true;
                    continue;
                }
                req.retreating = true;
                ++outcome.rejects;
                ++result.totalRejects;
                next_active.push_back(std::move(req));
                continue;
            }
            const std::size_t out = net_->outputLink(box, *port);
            req.triedPorts[s] |= static_cast<std::uint8_t>(1u << *port);
            avail_reg[s][box][*port] = 0; // zero after query (Fig. 10)
            circuit.claimSegment(s + 1, out);
            req.path.push_back(out);
            req.position = s + 1;
            if (req.position < stages) {
                req.triedPorts[req.position] = 0; // fresh box downstream
                ++outcome.boxesVisited;
            }
            next_active.push_back(std::move(req));
        }
        active = std::move(next_active);

        // Launch pending requests whose processors currently see
        // positive availability on their input link.
        bool launched = false;
        for (std::size_t i = 0; i < sources.size(); ++i) {
            if (!pending[i] || result.outcomes[i].served)
                continue;
            const std::size_t src = sources[i];
            if (emitted[0][src] == 0 || !circuit.segmentFree(0, src))
                continue;
            ActiveRequest req;
            req.index = i;
            req.src = src;
            req.position = 0;
            req.retreating = false;
            req.path.push_back(src);
            req.triedPorts.assign(stages, 0);
            circuit.claimSegment(0, src);
            pending[i] = false;
            ++result.outcomes[i].launches;
            ++result.outcomes[i].boxesVisited; // arrival at stage-0 box
            active.push_back(std::move(req));
            launched = true;
        }

        // Quiesce detection: with nothing in flight the status pipeline
        // converges to the truth in `stages` ticks; if after that no
        // processor can launch, the round is over.
        if (active.empty() && !launched) {
            if (++idle_ticks > stages + 2)
                break;
        } else {
            idle_ticks = 0;
        }
    }

    for (const auto &o : result.outcomes)
        result.totalBoxVisits += o.boxesVisited;
    result.ticksUsed = tick;
    return result;
}

} // namespace sched
} // namespace rsin
