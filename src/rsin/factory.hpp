#pragma once

/**
 * @file
 * One-call construction and execution of any configured RSIN system.
 * This is the primary entry point of the library's public API:
 *
 *   auto cfg = rsin::SystemConfig::parse("16/1x16x16 OMEGA/2");
 *   rsin::workload::WorkloadParams wl{...};
 *   rsin::SimResult res = rsin::simulate(cfg, wl, {});
 */

#include <memory>
#include <vector>

#include "common/parallel.hpp"
#include "rsin/omega_system.hpp"
#include "rsin/system.hpp"
#include "rsin/xbar_system.hpp"

namespace rsin {

/** Everything beyond config/workload/run-control a model can take. */
struct ModelOptions
{
    XbarArbitration xbarArbitration = XbarArbitration::IndexPriority;
    OmegaOptions omega = {};
};

/** Build the right simulation model for @p config. */
std::unique_ptr<SystemSimulation>
makeSystem(const SystemConfig &config,
           const workload::WorkloadParams &params,
           const SimOptions &options, const ModelOptions &model = {});

/**
 * Build and run in one call.  When options.shards > 1 and the
 * configuration can be split (more than one network), the system is
 * sharded by network and executed through runPartitioned; @p executor
 * then supplies the worker threads (null runs the shards on the
 * calling thread).  The result is the serial one, bit for bit, at any
 * shard count and with any executor; see src/rsin/partitioned_run.hpp
 * for the contract and the engine's remaining callers.
 */
SimResult simulate(const SystemConfig &config,
                   const workload::WorkloadParams &params,
                   const SimOptions &options,
                   const ModelOptions &model = {},
                   common::Executor *executor = nullptr);

/**
 * Per-replication seeds derived from @p baseSeed, exactly the sequence
 * simulateReplicated consumes.  Exposed so sweep drivers can fan the
 * replications of many cells out in parallel and still aggregate
 * results identical to the serial path.
 */
std::vector<std::uint64_t> replicationSeeds(std::uint64_t baseSeed,
                                            std::size_t replications);

/**
 * Collapse independent replication runs into one SimResult: the median
 * Ok run (a majority of saturated runs marks the point saturated),
 * with the mean delay and half-width widened to the
 * between-replication spread.  Truncated and no-data replications are
 * excluded from the estimates like saturated ones; if no replication
 * is Ok the aggregate itself is flagged Truncated / Saturated /
 * NoData.  Deterministic in the order of @p runs.
 */
SimResult aggregateReplications(std::vector<SimResult> runs,
                                const workload::WorkloadParams &params);

/**
 * Run @p replications independent runs (seeds derived from
 * options.seed) one after another and aggregate them (see
 * aggregateReplications).  Benches that want the replications of
 * many cells in parallel fan them out as sweep cells instead (seeds
 * from replicationSeeds).
 */
SimResult simulateReplicated(const SystemConfig &config,
                             const workload::WorkloadParams &params,
                             const SimOptions &options,
                             std::size_t replications,
                             const ModelOptions &model = {});

} // namespace rsin
