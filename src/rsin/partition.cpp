#include "partition.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace rsin {

PartitionPlan
planPartition(const SystemConfig &config, std::size_t requestedShards)
{
    config.validate();
    PartitionPlan plan;
    if (requestedShards <= 1 || config.networks <= 1)
        return plan; // no shards: run serially

    const std::size_t shardCount =
        std::min(requestedShards, config.networks);
    const std::size_t perNet = config.processorsPerNet();
    const std::size_t base = config.networks / shardCount;
    const std::size_t extra = config.networks % shardCount;

    plan.shards.reserve(shardCount);
    std::size_t nextNetwork = 0;
    for (std::size_t s = 0; s < shardCount; ++s) {
        ShardBounds bounds;
        bounds.firstNetwork = nextNetwork;
        bounds.lastNetwork = nextNetwork + base + (s < extra ? 1 : 0);
        bounds.firstProcessor = bounds.firstNetwork * perNet;
        bounds.lastProcessor = bounds.lastNetwork * perNet;
        plan.shards.push_back(bounds);
        nextNetwork = bounds.lastNetwork;
    }
    RSIN_ASSERT(nextNetwork == config.networks,
                "planPartition: networks not fully assigned");
    return plan;
}

} // namespace rsin
