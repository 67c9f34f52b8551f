#include "campaign.hpp"

#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/text.hpp"
#include "rsin/analysis.hpp"

namespace rsin {

namespace {

/** Does the scheduler/policy matrix apply to this network class? */
bool
schedulable(const SystemConfig &config)
{
    return config.network == NetworkClass::Omega ||
           config.network == NetworkClass::Cube;
}

/** rho value at grid index @p step (single-step grids sit at rhoMin). */
double
rhoAt(const CampaignSpec &spec, std::size_t step)
{
    if (spec.rhoSteps == 1)
        return spec.rhoMin;
    return spec.rhoMin + (spec.rhoMax - spec.rhoMin) *
                             static_cast<double>(step) /
                             static_cast<double>(spec.rhoSteps - 1);
}

/** Join tokens with commas (canonical-spec building block). */
std::string
joinTokens(const std::vector<std::string> &tokens)
{
    std::string out;
    for (const auto &t : tokens) {
        if (!out.empty())
            out += ',';
        out += t;
    }
    return out;
}

std::string
joinDoubles(const std::vector<double> &values)
{
    std::string out;
    for (const double v : values) {
        if (!out.empty())
            out += ',';
        out += formatf("%.17g", v);
    }
    return out;
}

} // namespace

void
CampaignSpec::validate() const
{
    RSIN_REQUIRE(!configs.empty(), "campaign: no configurations");
    for (const auto &cfg : configs)
        cfg.validate();
    RSIN_REQUIRE(!schedulers.empty(), "campaign: no schedulers");
    RSIN_REQUIRE(!policies.empty(), "campaign: no policies");
    RSIN_REQUIRE(!workloads.empty(), "campaign: no workloads");
    RSIN_REQUIRE(!ratios.empty(), "campaign: no ratios");
    for (const double r : ratios)
        RSIN_REQUIRE(r > 0.0, "campaign: ratio must be positive");
    RSIN_REQUIRE(rhoSteps >= 1, "campaign: need at least one rho step");
    RSIN_REQUIRE(rhoMax >= rhoMin, "campaign: rho-max < rho-min");
    RSIN_REQUIRE(rhoMin > 0.0, "campaign: rho-min must be positive");
    RSIN_REQUIRE(tasks >= 1, "campaign: need at least one task");
    RSIN_REQUIRE(replications >= 1,
                 "campaign: need at least one replication");
    RSIN_REQUIRE(muN > 0.0, "campaign: mu-n must be positive");
    // Tokens must parse; failing at plan time beats failing mid-run.
    for (const auto &t : schedulers)
        parseScheduler(t);
    for (const auto &t : policies)
        parseRoutingPolicy(t);
    for (const auto &t : workloads)
        parseWorkloadDist(t);
}

std::string
canonicalSpec(const CampaignSpec &spec)
{
    std::string configs;
    for (const auto &cfg : spec.configs) {
        if (!configs.empty())
            configs += ';';
        configs += cfg.str();
    }
    return "rsin.campaign.v1 configs=" + configs +
           " scheds=" + joinTokens(spec.schedulers) +
           " policies=" + joinTokens(spec.policies) +
           " workloads=" + joinTokens(spec.workloads) +
           " ratios=" + joinDoubles(spec.ratios) +
           formatf(" rho=[%.17g,%.17g]x%zu", spec.rhoMin, spec.rhoMax,
                   spec.rhoSteps) +
           formatf(" tasks=%llu reps=%zu seed=%llu mu-n=%.17g"
                   " analytic=%d",
                   static_cast<unsigned long long>(spec.tasks),
                   spec.replications,
                   static_cast<unsigned long long>(spec.seed),
                   spec.muN, spec.analytic ? 1 : 0);
}

std::vector<CampaignCell>
planCampaign(const CampaignSpec &spec)
{
    spec.validate();
    std::vector<CampaignCell> cells;
    std::size_t combo = 0;
    for (std::size_t c = 0; c < spec.configs.size(); ++c) {
        const auto &cfg = spec.configs[c];
        // Non-switched networks have no scheduler/policy choice: the
        // dimensions collapse to one cell instead of multiplying out
        // duplicates that would collide on the ledger key.
        const std::size_t scheds =
            schedulable(cfg) ? spec.schedulers.size() : 1;
        const std::size_t pols =
            schedulable(cfg) ? spec.policies.size() : 1;
        for (std::size_t s = 0; s < scheds; ++s)
            for (std::size_t p = 0; p < pols; ++p)
                for (std::size_t w = 0; w < spec.workloads.size(); ++w)
                    for (std::size_t t = 0; t < spec.ratios.size();
                         ++t) {
                        for (std::size_t g = 0; g < spec.rhoSteps;
                             ++g) {
                            for (std::size_t rep = 0;
                                 rep < spec.replications; ++rep) {
                                CampaignCell cell;
                                cell.configIndex = c;
                                cell.schedIndex = s;
                                cell.policyIndex = p;
                                cell.workloadIndex = w;
                                cell.ratioIndex = t;
                                cell.comboIndex = combo;
                                cell.rhoIndex = g;
                                cell.replication =
                                    static_cast<int>(rep);
                                cell.ratio = spec.ratios[t];
                                cell.rho = rhoAt(spec, g);
                                cell.lambda = lambdaForRho(
                                    cfg, cell.rho, spec.muN,
                                    spec.muN * cell.ratio);
                                cell.seed = mixSeed(spec.seed, combo,
                                                    g, rep);
                                cell.key = formatf(
                                    "run|%s|sched=%s|policy=%s|wl=%s"
                                    "|ratio=%.17g|rho=%zu|rep=%zu",
                                    cfg.str().c_str(),
                                    spec.schedulers[s].c_str(),
                                    spec.policies[p].c_str(),
                                    spec.workloads[w].c_str(),
                                    cell.ratio, g, rep);
                                cells.push_back(std::move(cell));
                            }
                        }
                        ++combo;
                    }
    }
    if (spec.analytic) {
        for (std::size_t c = 0; c < spec.configs.size(); ++c) {
            const auto &cfg = spec.configs[c];
            const bool exact = cfg.network == NetworkClass::SingleBus ||
                               xbarExactInRange(cfg) ||
                               omegaExactInRange(cfg);
            if (!exact)
                continue;
            for (std::size_t t = 0; t < spec.ratios.size(); ++t)
                for (std::size_t g = 0; g < spec.rhoSteps; ++g) {
                    CampaignCell cell;
                    cell.analytic = true;
                    cell.configIndex = c;
                    cell.ratioIndex = t;
                    cell.rhoIndex = g;
                    cell.ratio = spec.ratios[t];
                    cell.rho = rhoAt(spec, g);
                    cell.lambda =
                        lambdaForRho(cfg, cell.rho, spec.muN,
                                     spec.muN * cell.ratio);
                    cell.key = formatf(
                        "analytic|%s|ratio=%.17g|rho=%zu",
                        cfg.str().c_str(), cell.ratio, g);
                    cells.push_back(std::move(cell));
                }
        }
    }
    return cells;
}

std::string
cellCurve(const CampaignSpec &spec, const CampaignCell &cell)
{
    const auto &cfg = spec.configs[cell.configIndex];
    if (cell.analytic)
        return cfg.str() +
               formatf(" ratio=%g (analytic)", cell.ratio);
    std::string curve = cfg.str();
    if (schedulable(cfg)) {
        if (spec.schedulers.size() > 1)
            curve += " sched=" + spec.schedulers[cell.schedIndex];
        if (spec.policies.size() > 1)
            curve += " policy=" + spec.policies[cell.policyIndex];
    }
    if (spec.workloads.size() > 1)
        curve += " wl=" + spec.workloads[cell.workloadIndex];
    if (spec.ratios.size() > 1)
        curve += formatf(" ratio=%g", cell.ratio);
    return curve;
}

workload::WorkloadParams
cellWorkload(const CampaignSpec &spec, const CampaignCell &cell)
{
    workload::WorkloadParams params;
    params.lambda = cell.lambda;
    params.muN = spec.muN;
    params.muS = spec.muN * cell.ratio;
    params.serviceDist =
        parseWorkloadDist(spec.workloads[cell.workloadIndex]);
    return params;
}

ModelOptions
cellModel(const CampaignSpec &spec, const CampaignCell &cell)
{
    ModelOptions model;
    const std::string &sched = spec.schedulers[cell.schedIndex];
    if (sched != "default")
        model.omega.scheduling = parseScheduler(sched);
    model.omega.policy =
        parseRoutingPolicy(spec.policies[cell.policyIndex]);
    return model;
}

OmegaScheduling
parseScheduler(const std::string &token)
{
    if (token == "default" || token == "distributed")
        return OmegaScheduling::Distributed;
    if (token == "distributed-clocked")
        return OmegaScheduling::DistributedClocked;
    if (token == "address-random")
        return OmegaScheduling::AddressRandomFree;
    if (token == "address-first")
        return OmegaScheduling::AddressFirstFree;
    RSIN_FATAL("campaign: unknown scheduler '", token,
               "' (expected default, distributed,"
               " distributed-clocked, address-random, address-first)");
}

sched::RoutingPolicy
parseRoutingPolicy(const std::string &token)
{
    if (token == "most-resources")
        return sched::RoutingPolicy::MostResources;
    if (token == "prefer-upper")
        return sched::RoutingPolicy::PreferUpper;
    if (token == "random-tie")
        return sched::RoutingPolicy::RandomTie;
    RSIN_FATAL("campaign: unknown routing policy '", token,
               "' (expected most-resources, prefer-upper,"
               " random-tie)");
}

workload::TimeDistribution
parseWorkloadDist(const std::string &token)
{
    if (token == "exp")
        return workload::TimeDistribution::Exponential;
    if (token == "det")
        return workload::TimeDistribution::Deterministic;
    if (token == "erlang2")
        return workload::TimeDistribution::Erlang2;
    if (token == "hyper2")
        return workload::TimeDistribution::Hyper2;
    RSIN_FATAL("campaign: unknown workload '", token,
               "' (expected exp, det, erlang2, hyper2)");
}

} // namespace rsin
