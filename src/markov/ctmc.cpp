#include "ctmc.hpp"

#include "common/error.hpp"

namespace rsin {
namespace markov {

std::size_t
Ctmc::addState(std::string label)
{
    adj_.emplace_back();
    labels_.push_back(std::move(label));
    return adj_.size() - 1;
}

void
Ctmc::reserveStates(std::size_t n)
{
    while (adj_.size() < n)
        addState();
}

void
Ctmc::addTransition(std::size_t from, std::size_t to, double rate)
{
    RSIN_REQUIRE(from < adj_.size() && to < adj_.size(),
                 "addTransition: state index out of range");
    RSIN_REQUIRE(from != to, "addTransition: self loops are meaningless");
    RSIN_REQUIRE(rate > 0.0, "addTransition: rate must be positive");
    adj_[from].push_back({to, rate});
}

const std::vector<Transition> &
Ctmc::outgoing(std::size_t i) const
{
    RSIN_REQUIRE(i < adj_.size(), "outgoing: state index out of range");
    return adj_[i];
}

double
Ctmc::exitRate(std::size_t i) const
{
    double total = 0.0;
    for (const auto &t : outgoing(i))
        total += t.rate;
    return total;
}

la::Matrix
Ctmc::generator() const
{
    const std::size_t n = states();
    la::Matrix q(n, n);
    for (std::size_t i = 0; i < n; ++i) {
        for (const auto &t : adj_[i]) {
            q(i, t.to) += t.rate;
            q(i, i) -= t.rate;
        }
    }
    return q;
}

la::Vector
Ctmc::stationaryDense() const
{
    RSIN_REQUIRE(states() > 0, "stationaryDense: empty chain");
    return la::stationaryFromGenerator(generator());
}

double
Ctmc::balanceResidual(const la::Vector &pi) const
{
    RSIN_REQUIRE(pi.size() == states(), "balanceResidual: size mismatch");
    la::Vector residual(states(), 0.0);
    for (std::size_t i = 0; i < states(); ++i) {
        for (const auto &t : adj_[i]) {
            residual[t.to] += pi[i] * t.rate;
            residual[i] -= pi[i] * t.rate;
        }
    }
    return la::normInf(residual);
}

} // namespace markov
} // namespace rsin
