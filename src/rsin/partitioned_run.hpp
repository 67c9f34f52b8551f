#pragma once

/**
 * @file
 * The partitioned run driver: shard construction, conservative window
 * execution through des::PartitionedSimulator, and the timestamp-order
 * merge that reduces shard logs into one global SimResult.
 *
 * Bit-exactness contract (the serial calendar stays the oracle): for
 * models that draw no master-RNG numbers during events -- SBUS, XBAR
 * under IndexPriority, FifoArrival and GateLevel, OMEGA/CUBE under the
 * MostResources and PreferUpper policies and address-first scheduling,
 * without the return network -- a partitioned run reproduces the
 * serial SimResult exactly, rejections included, for any shard count
 * and any executor, because
 *
 *  - each shard owns whole networks, networks never interact, and
 *    dispatch is event-local (an event re-dispatches only its own
 *    network), so per-shard event sequences equal the serial
 *    per-network ones (same per-processor RNG streams, offset-aligned);
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
 * The modes that draw from the per-run master RNG -- XBAR RandomToken,
 * the RandomTie policy, address-random and distributed-clocked
 * scheduling, and the return network's transmit times -- interleave
 * those draws in the event order of one calendar, so their partitioned
 * runs are deterministic for a given shard count but not bit-identical
 * to the serial calendar.
 */

#include "common/parallel.hpp"
#include "rsin/factory.hpp"
#include "rsin/partition.hpp"
#include "rsin/system.hpp"

namespace rsin {

/**
 * Execute @p plan (which must have kind != PartitionKind::None) and
 * return the merged result.  @p executor supplies worker threads; null
 * (or single-worker) runs every shard on the calling thread with an
 * identical result.
 */
SimResult runPartitioned(const SystemConfig &config,
                         const workload::WorkloadParams &params,
                         const SimOptions &options,
                         const ModelOptions &model,
                         const PartitionPlan &plan,
                         common::Executor *executor);

} // namespace rsin
