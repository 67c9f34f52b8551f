#pragma once

/**
 * @file
 * The partitioned run driver: shard construction, the window loop that
 * advances every shard on its own to a common horizon, and the
 * timestamp-order merge that reduces shard logs into one global
 * SimResult.
 *
 * Determinism contract (the serial calendar stays the oracle): for
 * every network class, XBAR arbitration, OMEGA/CUBE scheduling mode
 * and routing policy, with or without the return network, a
 * partitioned run reproduces the serial SimResult exactly, rejections
 * included, for any shard count and any executor.  Only shardsUsed and
 * the arena high-water mark differ.  This holds because
 *
 *  - each shard owns whole networks, networks never interact, and
 *    dispatch is event-local (an event re-dispatches only its own
 *    network), so per-shard event sequences equal the serial
 *    per-network ones;
 *  - every random number a network consumes comes from a stream that
 *    belongs to it alone: the per-processor arrival and task streams
 *    (offset-aligned to the serial numbering) and the network's own
 *    routing stream, seeded from the run seed and the network's global
 *    index;
 *  - observations are merged by timestamp into the serial reduction
 *    order and fed to a fresh global MetricsCollector/TimeWeighted,
 *    so every floating-point accumulation happens in the serial order
 *    on the same values (cross-shard timestamp ties would be the one
 *    exception; they are measure-zero for continuous workloads);
 *  - the serial stop point (measurement quota, saturation crossing,
 *    or the maxEvents valve, whichever comes first in global event
 *    order) is reconstructed exactly from the merged logs and the
 *    per-event kernel journals, and only observations at or before
 *    that cut are committed.
 *
 * Callers: no command-line driver shards a run; cells are what the
 * worker pools run.  The engine is reached only through simulate()
 * with SimOptions::shards > 1, and its remaining callers are the
 * benchmark's two 4-shard sim_large cells (e2ebench/workloads.cpp),
 * tests/test_partitioned.cpp and BM_PartitionedDes
 * (bench/micro_kernels.cpp).  It is deleted together with them (see
 * ROADMAP.md, "Delete in-run sharding").
 */

#include "common/parallel.hpp"
#include "rsin/factory.hpp"
#include "rsin/partition.hpp"
#include "rsin/system.hpp"

namespace rsin {

/**
 * Execute @p plan (which must have at least two shards) and return the
 * merged result.  @p executor supplies worker threads; null (or
 * single-worker) runs every shard on the calling thread with an
 * identical result.
 */
SimResult runPartitioned(const SystemConfig &config,
                         const workload::WorkloadParams &params,
                         const SimOptions &options,
                         const ModelOptions &model,
                         const PartitionPlan &plan,
                         common::Executor *executor);

} // namespace rsin
