/**
 * @file
 * Extension experiment: multi-resource requests, the problem the paper
 * defers ("deadlocks may occur when multiple resources are requested
 * ... beyond the scope of this paper", Section I; solved in the
 * follow-up [35]).  On a 16-processor crossbar with 16 resources we
 * compare three acquisition disciplines for k-resource tasks:
 * hold-and-wait (greedy) with rollback recovery, Banker's-style
 * admission control, and atomic all-or-nothing reservation --
 * measuring delay, deadlock frequency and rollback overhead.
 */

#include <iostream>

#include "common/args.hpp"
#include "common/table.hpp"
#include "common/text.hpp"
#include "rsin/analysis.hpp"
#include "rsin/multi_resource.hpp"

using namespace rsin;

namespace {

const char *
policyName(AcquisitionPolicy p)
{
    switch (p) {
      case AcquisitionPolicy::Greedy: return "greedy+rollback";
      case AcquisitionPolicy::AdmissionControl: return "admission-ctl";
      case AcquisitionPolicy::AllOrNothing: return "all-or-nothing";
    }
    return "?";
}

} // namespace

int
main(int argc, char **argv)
{
    rsin::requireNoArgs(argc, argv);
    const auto cfg = SystemConfig::parse("16/1x16x16 XBAR/1");
    const double mu_n = 2.0, mu_s = 2.0;

    for (std::size_t k : {2u, 4u}) {
        TextTable table(formatf(
            "Multi-resource acquisition (k = %zu of 16 resources, "
            "16 processors)", k));
        table.header({"offered tasks/unit-time", "policy", "mean delay",
                      "deadlocks/10k tasks", "rollbacks/10k tasks"});
        // Capacity ~ m / (k * (k/mu_n + 1/mu_s)) tasks per unit time.
        const double capacity =
            16.0 / (static_cast<double>(k) *
                    (static_cast<double>(k) / mu_n + 1.0 / mu_s));
        for (double load_frac : {0.4, 0.7, 0.9}) {
            const double total_lambda = load_frac * capacity;
            for (auto policy : {AcquisitionPolicy::Greedy,
                                AcquisitionPolicy::AdmissionControl,
                                AcquisitionPolicy::AllOrNothing}) {
                workload::WorkloadParams params;
                params.muN = mu_n;
                params.muS = mu_s;
                params.lambda = total_lambda / 16.0;
                SimOptions opts;
                opts.seed = 2024 + k;
                opts.warmupTasks = 2000;
                opts.measureTasks = 20000;
                MultiResourceOptions multi;
                multi.resourcesPerRequest = k;
                multi.policy = policy;
                multi.recovery = DeadlockRecovery::Rollback;
                MultiResourceCrossbarSystem sys(cfg, params, opts,
                                                multi);
                const auto res = sys.run();
                const double per_10k =
                    10000.0 /
                    std::max<double>(1.0,
                                     static_cast<double>(
                                         res.completedTasks));
                table.row(
                    {formatf("%.2f (%.0f%% cap)", total_lambda,
                             load_frac * 100),
                     policyName(policy),
                     res.saturated ? "saturated"
                                   : formatf("%.4f", res.meanDelay),
                     formatf("%.1f",
                             static_cast<double>(
                                 sys.multiStats().deadlocksDetected) *
                                 per_10k),
                     formatf("%.1f",
                             static_cast<double>(
                                 sys.multiStats().rollbacks) *
                                 per_10k)});
            }
        }
        table.print(std::cout);
        std::cout << "\n";
    }
    std::cout <<
        "Hold-and-wait deadlocks grow with both k and load and cost\n"
        "rollback work; Banker's-style admission control avoids them\n"
        "for free at low k, while atomic reservation pays an up-front\n"
        "waiting penalty that grows with k.\n";
    return 0;
}
