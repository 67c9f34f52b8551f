#include "centralized.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace rsin {
namespace sched {

namespace {

/** Recursive branch-and-bound over sources in order. */
struct MapSearch
{
    const topology::MultistageNetwork &net;
    topology::CircuitState circuit; // working copy
    const std::vector<std::size_t> &sources;
    const std::vector<std::size_t> &outputs;
    std::vector<bool> outputUsed;
    std::vector<Mapping> current;
    OptimalMapResult best;

    void
    recurse(std::size_t idx)
    {
        ++best.nodesExplored;
        if (current.size() > best.maxAllocations) {
            best.maxAllocations = current.size();
            best.mapping = current;
        }
        if (idx == sources.size())
            return;
        // Bound: even if every remaining source is served we cannot
        // beat the incumbent.
        if (current.size() + (sources.size() - idx) <=
            best.maxAllocations)
            return;
        const std::size_t src = sources[idx];
        for (std::size_t oi = 0; oi < outputs.size(); ++oi) {
            if (outputUsed[oi])
                continue;
            const auto path = net.path(src, outputs[oi]);
            if (!circuit.pathFree(path))
                continue;
            circuit.claim(path);
            outputUsed[oi] = true;
            current.push_back({src, outputs[oi]});
            recurse(idx + 1);
            current.pop_back();
            outputUsed[oi] = false;
            circuit.release(path);
        }
        // Also consider leaving this source unserved.
        recurse(idx + 1);
    }
};

} // namespace

OptimalMapResult
optimalMapping(const topology::MultistageNetwork &net,
               const topology::CircuitState &circuit,
               const std::vector<std::size_t> &sources,
               const std::vector<std::size_t> &free_outputs)
{
    for (std::size_t s : sources)
        RSIN_REQUIRE(s < net.size(), "optimalMapping: bad source");
    for (std::size_t d : free_outputs)
        RSIN_REQUIRE(d < net.size(), "optimalMapping: bad output");
    MapSearch search{net, circuit, sources, free_outputs,
                     std::vector<bool>(free_outputs.size(), false),
                     {}, {}};
    search.recurse(0);
    return search.best;
}

std::size_t
maxCompatibleSubset(const topology::MultistageNetwork &net,
                    const std::vector<Mapping> &mapping)
{
    RSIN_REQUIRE(mapping.size() <= 20, "maxCompatibleSubset: too large");
    std::vector<topology::LinkPath> paths;
    paths.reserve(mapping.size());
    for (const auto &m : mapping)
        paths.push_back(net.path(m.src, m.dst));

    std::size_t best = 0;
    const std::size_t subsets = std::size_t{1} << mapping.size();
    for (std::size_t mask = 0; mask < subsets; ++mask) {
        topology::CircuitState circuit(net);
        bool ok = true;
        std::size_t count = 0;
        for (std::size_t i = 0; i < mapping.size() && ok; ++i) {
            if (!(mask & (std::size_t{1} << i)))
                continue;
            if (!circuit.pathFree(paths[i])) {
                ok = false;
                break;
            }
            circuit.claim(paths[i]);
            ++count;
        }
        if (ok)
            best = std::max(best, count);
    }
    return best;
}

std::size_t
ceilLog2(std::size_t x)
{
    RSIN_REQUIRE(x >= 1, "ceilLog2: x must be >= 1");
    std::size_t n = 0;
    while ((std::size_t{1} << n) < x)
        ++n;
    return n;
}

std::size_t
CentralizedDelayModel::treeSelectDelay() const
{
    // A selection propagates down and back up an m-leaf tree.
    return 2 * m;
}

std::size_t
CentralizedDelayModel::prioritySelectDelay() const
{
    return std::max<std::size_t>(1, ceilLog2(m));
}

std::size_t
CentralizedDelayModel::switchSetDelay() const
{
    return std::max<std::size_t>(1, ceilLog2(p * m));
}

std::size_t
CentralizedDelayModel::serveAll(std::size_t k, bool use_tree) const
{
    const std::size_t per =
        (use_tree ? treeSelectDelay() : prioritySelectDelay()) +
        switchSetDelay();
    return k * per;
}

} // namespace sched
} // namespace rsin
