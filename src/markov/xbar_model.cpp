#include "xbar_model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/error.hpp"

namespace rsin {
namespace markov {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Binomial coefficient in doubles (exact well past the solvable
 *  range, monotone overflow beyond it). */
double
binomialD(std::size_t n, std::size_t k)
{
    if (k > n)
        return 0.0;
    k = std::min(k, n - k);
    double result = 1.0;
    for (std::size_t i = 1; i <= k; ++i)
        result *= static_cast<double>(n - k + i) / static_cast<double>(i);
    return result;
}

std::size_t
sumFirst(const std::vector<std::size_t> &count, std::size_t r)
{
    std::size_t total = 0;
    for (std::size_t s = 0; s < r; ++s)
        total += count[s];
    return total;
}

std::size_t
eligibleOf(const std::vector<std::size_t> &count, std::size_t r)
{
    std::size_t total = 0;
    for (std::size_t s = 0; s < r; ++s)
        total += count[r + s];
    return total;
}

} // namespace

std::size_t
netChainPhaseCount(std::size_t processors, std::size_t buses,
                   std::size_t resources)
{
    const std::size_t r = resources;
    double total = 0.0;
    // Count vectors split by t transmitting buses (over r classes)
    // with the remaining buses idle (over r+1 classes).
    for (std::size_t t = 0; t <= std::min(processors, buses); ++t)
        total += binomialD(t + r - 1, r - 1) *
                 binomialD(buses - t + r, r);
    if (!(total < 1e15))
        return std::numeric_limits<std::size_t>::max() / 2;
    return static_cast<std::size_t>(total + 0.5);
}

XbarChainModel::XbarChainModel(const NetChainParams &params)
    : params_(params)
{
    RSIN_REQUIRE(params.processors >= 1 && params.buses >= 1 &&
                     params.resources >= 1,
                 "XbarChainModel: processors/buses/resources must be "
                 "positive");
    RSIN_REQUIRE(params.lambda > 0.0 && params.muN > 0.0 &&
                     params.muS > 0.0,
                 "XbarChainModel: rates must be positive");
    RSIN_REQUIRE(params.linkConflict >= 0.0 && params.linkConflict < 1.0,
                 "XbarChainModel: linkConflict must be in [0, 1)");

    // Enumerate phases in lexicographic order (so lookups can binary
    // search): count vectors over 2r+1 classes summing to k with at
    // most j transmitting.
    const std::size_t r = params.resources;
    const std::size_t classes = 2 * r + 1;
    std::vector<std::size_t> count(classes, 0);
    const auto recurse = [&](const auto &self, std::size_t pos,
                             std::size_t left,
                             std::size_t transmitting_so_far) -> void {
        if (pos + 1 == classes) {
            count[pos] = left;
            counts_.push_back(count);
            return;
        }
        for (std::size_t v = 0; v <= left; ++v) {
            if (pos < r &&
                transmitting_so_far + v > params_.processors)
                break;
            count[pos] = v;
            self(self, pos + 1, left - v,
                 pos < r ? transmitting_so_far + v
                         : transmitting_so_far);
        }
        count[pos] = 0;
    };
    recurse(recurse, 0, params.buses, 0);

    std::vector<std::size_t> empty(classes, 0);
    empty[r] = params.buses; // every bus idle, no resource busy
    emptyPhase_ = phaseIndex(empty);
}

std::size_t
XbarChainModel::phaseIndex(const std::vector<std::size_t> &count) const
{
    const auto it =
        std::lower_bound(counts_.begin(), counts_.end(), count);
    RSIN_REQUIRE(it != counts_.end() && *it == count,
                 "XbarChainModel: transition target is not a phase");
    return static_cast<std::size_t>(it - counts_.begin());
}

std::size_t
XbarChainModel::transmitting(std::size_t phase) const
{
    return sumFirst(counts_[phase], params_.resources);
}

std::size_t
XbarChainModel::eligible(std::size_t phase) const
{
    return eligibleOf(counts_[phase], params_.resources);
}

std::size_t
XbarChainModel::busyResources(std::size_t phase) const
{
    const std::size_t r = params_.resources;
    const auto &c = counts_[phase];
    std::size_t busy = 0;
    for (std::size_t s = 0; s < r; ++s)
        busy += c[s] * s;
    for (std::size_t s = 0; s <= r; ++s)
        busy += c[r + s] * s;
    return busy;
}

double
XbarChainModel::selfDispatchProbability(std::size_t phase) const
{
    const std::size_t t = transmitting(phase);
    const std::size_t e = eligible(phase);
    if (e == 0 || t >= params_.processors)
        return 0.0;
    const double free_processor =
        1.0 - static_cast<double>(t) /
                  static_cast<double>(params_.processors);
    return free_processor * linkFactor(t, e);
}

double
XbarChainModel::linkFactor(std::size_t, std::size_t) const
{
    return 1.0; // the crossbar never blocks a dispatch on the network
}

double
XbarChainModel::homogeneityGap(std::size_t level) const
{
    const double j = static_cast<double>(params_.processors);
    if (params_.processors <= 1)
        return 0.0;
    return std::pow((j - 1.0) / j, static_cast<double>(level));
}

void
XbarChainModel::levelBlocks(std::size_t level, la::Triplets &a0,
                            la::Triplets &a1, la::Triplets &a2) const
{
    appendBlocks(false, level, a0, a1, a2);
}

void
XbarChainModel::limitBlocks(la::Triplets &a0, la::Triplets &a1,
                            la::Triplets &a2) const
{
    appendBlocks(true, 0, a0, a1, a2);
}

const std::vector<XbarChainModel::Move> &
XbarChainModel::pattern() const
{
    std::call_once(patternOnce_, [this] { pattern_ = enumeratePattern(); });
    return pattern_;
}

std::vector<XbarChainModel::Move>
XbarChainModel::enumeratePattern() const
{
    const std::size_t j = params_.processors;
    const std::size_t r = params_.resources;
    // Head-of-line weight indices: the clustered correction of t
    // previously transmitting processors is weight t, the
    // uniform-spread one with t transmitting is weight hol_free + t.
    const std::size_t hol_free = std::min(j, params_.buses) + 1;
    const double arrival =
        static_cast<double>(j) * params_.lambda;

    std::vector<Move> moves;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        const auto &c = counts_[i];
        const std::size_t t = sumFirst(c, r);
        double exit = arrival;
        const auto fixed = [&](Move::Kind kind, std::size_t to,
                               double value) {
            Move m;
            m.from = i;
            m.to = to;
            m.kind = kind;
            m.rate = value;
            moves.push_back(m);
        };

        // Arrival: self-dispatch stays within the level (the new task
        // starts transmitting), otherwise it joins the queue (A0).
        const double p_self = selfDispatchProbability(i);
        if (p_self > 0.0) {
            const std::size_t e = eligibleOf(c, r);
            for (std::size_t s = 0; s < r; ++s) {
                if (c[r + s] == 0)
                    continue;
                std::vector<std::size_t> next = c;
                --next[r + s];
                ++next[s];
                fixed(Move::FixedA1, phaseIndex(next),
                      arrival * p_self * static_cast<double>(c[r + s]) /
                          static_cast<double>(e));
            }
        }
        fixed(Move::FixedA0, i, arrival * (1.0 - p_self));

        // A completion landing in count @p landed with @p t_post
        // circuits still transmitting: one queued task then attempts
        // to dispatch with the head-of-line probability @p weight
        // (level drops on success), else the phase just moves.
        const auto completion = [&](const std::vector<std::size_t>
                                        &landed,
                                    double rate, std::size_t t_post,
                                    std::size_t weight) {
            Move m;
            m.from = i;
            m.weight = weight;
            m.rate = rate;
            const std::size_t e2 = eligibleOf(landed, r);
            if (e2 > 0)
                m.link = linkFactor(t_post, e2);
            m.kind = Move::Dispatch;
            m.eligible = static_cast<double>(e2);
            // With every processor transmitting no head can dispatch:
            // its weight is 0 at every level.
            for (std::size_t s2 = 0; t_post < j && s2 < r; ++s2) {
                if (landed[r + s2] == 0)
                    continue;
                std::vector<std::size_t> next = landed;
                --next[r + s2];
                ++next[s2];
                m.to = phaseIndex(next);
                m.landed = static_cast<double>(landed[r + s2]);
                moves.push_back(m);
            }
            m.kind = Move::Stay;
            m.to = phaseIndex(landed);
            moves.push_back(m);
        };

        // Transmit completions: the bus frees, the task seizes one
        // resource and begins service; the freed processor's own
        // queue head (clustered correction) attempts to dispatch.
        for (std::size_t s = 0; s < r; ++s) {
            if (c[s] == 0)
                continue;
            const double rate =
                static_cast<double>(c[s]) * params_.muN;
            exit += rate;
            std::vector<std::size_t> landed = c;
            --landed[s];
            ++landed[r + s + 1];
            completion(landed, rate, t - 1, t);
        }
        // Service completions behind a *transmitting* bus: the freed
        // resource's bus is still busy, so no dispatch opportunity
        // opens -- the phase just steps down within the level.
        for (std::size_t s = 1; s < r; ++s) {
            if (c[s] == 0)
                continue;
            const double rate = static_cast<double>(c[s]) *
                                static_cast<double>(s) * params_.muS;
            exit += rate;
            std::vector<std::size_t> landed = c;
            --landed[s];
            ++landed[s - 1];
            fixed(Move::FixedA1, phaseIndex(landed), rate);
        }
        // Service completions behind an idle bus: one busy resource
        // frees.  While another bus is already eligible this opens no
        // new dispatch opportunity (any dispatchable head would have
        // left on an earlier event); only when every bus was blocked
        // does the re-opened bus pick up a waiting head.
        const std::size_t e_before = eligibleOf(c, r);
        for (std::size_t s = 1; s <= r; ++s) {
            if (c[r + s] == 0)
                continue;
            const double rate = static_cast<double>(c[r + s]) *
                                static_cast<double>(s) * params_.muS;
            exit += rate;
            std::vector<std::size_t> landed = c;
            --landed[r + s];
            ++landed[r + s - 1];
            if (e_before > 0)
                fixed(Move::FixedA1, phaseIndex(landed), rate);
            else
                completion(landed, rate, t, hol_free + t);
        }

        fixed(Move::FixedA1, i, -exit);
    }
    return moves;
}

void
XbarChainModel::appendBlocks(bool limit, std::size_t level,
                             la::Triplets &a0, la::Triplets &a1,
                             la::Triplets &a2) const
{
    const std::size_t j = params_.processors;
    const std::size_t t_max = std::min(j, params_.buses);

    // Head-of-line corrections, indexed as enumeratePattern() does.
    // While some bus is eligible, a head at a free processor
    // dispatches immediately, so queued tasks sit behind
    // *transmitting* processors: a transmit completion frees exactly
    // one processor, whose queue is nonempty with the clustered
    // probability (level tasks spread over the t previously
    // transmitting processors).  When *no* bus was eligible, arrivals
    // queued at free processors too; a service completion that
    // re-opens a bus then finds a head at one of the j - t free
    // processors with the uniform-spread probability (level tasks
    // over all j processors).
    std::vector<double> weight(2 * (t_max + 1), 0.0);
    for (std::size_t t = 0; t <= t_max; ++t) {
        double &cluster = weight[t];
        double &uniform = weight[t_max + 1 + t];
        if (limit) {
            cluster = 1.0;
            uniform = t < j ? 1.0 : 0.0;
        } else if (level > 0) { // level 0: nothing queued
            if (t > 0) // t = 0: nothing completing
                cluster = 1.0 - std::pow(static_cast<double>(t - 1) /
                                             static_cast<double>(t),
                                         static_cast<double>(level));
            uniform = 1.0 - std::pow(static_cast<double>(t) /
                                         static_cast<double>(j),
                                     static_cast<double>(level));
        }
    }

    for (const Move &m : pattern()) {
        switch (m.kind) {
          case Move::FixedA0:
            a0.push_back({m.from, m.to, m.rate});
            break;
          case Move::FixedA1:
            a1.push_back({m.from, m.to, m.rate});
            break;
          case Move::Dispatch: {
            const double p = weight[m.weight] * m.link;
            if (p > 0.0)
                a2.push_back(
                    {m.from, m.to, m.rate * p * m.landed / m.eligible});
            break;
          }
          case Move::Stay: {
            const double stay =
                m.rate * (1.0 - weight[m.weight] * m.link);
            if (stay > 0.0)
                a1.push_back({m.from, m.to, stay});
            break;
          }
        }
    }
}

SbusSolution
chainSolution(const XbarChainModel &model, const LdQbdResult &result)
{
    const NetChainParams &prm = model.params();
    SbusSolution sol;
    sol.levelsUsed = result.levelsUsed;
    sol.truncationBound = result.truncationBound;
    if (!result.stable) {
        sol.stable = false;
        sol.meanQueueLength = kInf;
        sol.queueingDelay = kInf;
        sol.normalizedDelay = kInf;
        return sol;
    }
    const double arrival =
        static_cast<double>(prm.processors) * prm.lambda;
    sol.meanQueueLength = result.meanLevel;
    sol.queueingDelay = result.meanLevel / arrival; // Little, Eq. (1)
    sol.normalizedDelay = prm.muS * sol.queueingDelay;

    const double k = static_cast<double>(prm.buses);
    const double kr = k * static_cast<double>(prm.resources);
    double bus_busy = 0.0;
    double busy_resources = 0.0;
    double no_wait = 0.0;
    for (std::size_t p = 0; p < model.phases(); ++p) {
        const double mass = result.phaseMarginal[p];
        bus_busy +=
            mass * static_cast<double>(model.transmitting(p));
        busy_resources +=
            mass * static_cast<double>(model.busyResources(p));
        // PASTA: an arrival skips the queue iff it self-dispatches.
        no_wait += mass * model.selfDispatchProbability(p);
    }
    sol.busUtilization = bus_busy / k;
    sol.resourceUtilization = busy_resources / kr;
    sol.probNoWait = no_wait;
    sol.probEmptySystem = result.levelZero[model.emptyPhase()];
    return sol;
}

SbusSolution
solveXbarChain(const NetChainParams &params, const LdQbdOptions &opts)
{
    const XbarChainModel model(params);
    return chainSolution(model, solveStationary(model, opts));
}

} // namespace markov
} // namespace rsin
