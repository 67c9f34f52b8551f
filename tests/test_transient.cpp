/**
 * @file
 * Tests for the uniformization transient solver: exact two-state
 * solutions, convergence to the stationary distribution, probability
 * conservation, and the mixing-time probe on the SBUS chain.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "markov/ctmc.hpp"
#include "markov/sbus_model.hpp"
#include "markov/sbus_solvers.hpp"
#include "markov/transient.hpp"

namespace rsin {
namespace markov {
namespace {

Ctmc
twoState(double a, double b)
{
    Ctmc chain;
    chain.reserveStates(2);
    chain.addTransition(0, 1, a);
    chain.addTransition(1, 0, b);
    return chain;
}

TEST(TransientTest, TwoStateClosedForm)
{
    // P(X_t = 1 | X_0 = 0) = a/(a+b) * (1 - e^{-(a+b)t}).
    const double a = 2.0, b = 3.0;
    const Ctmc chain = twoState(a, b);
    for (double t : {0.0, 0.1, 0.5, 1.0, 3.0}) {
        const auto p = transientDistribution(chain, {1.0, 0.0}, t);
        const double expected =
            a / (a + b) * (1.0 - std::exp(-(a + b) * t));
        EXPECT_NEAR(p[1], expected, 1e-9) << "t = " << t;
        EXPECT_NEAR(p[0] + p[1], 1.0, 1e-12);
    }
}

TEST(TransientTest, ZeroTimeIsIdentity)
{
    const Ctmc chain = twoState(1.0, 1.0);
    const auto p = transientDistribution(chain, {0.25, 0.75}, 0.0);
    EXPECT_DOUBLE_EQ(p[0], 0.25);
    EXPECT_DOUBLE_EQ(p[1], 0.75);
}

TEST(TransientTest, RejectsBadInitial)
{
    const Ctmc chain = twoState(1.0, 1.0);
    EXPECT_THROW(transientDistribution(chain, {0.5, 0.2}, 1.0),
                 FatalError);
    EXPECT_THROW(transientDistribution(chain, {1.0, 0.0}, -1.0),
                 FatalError);
    EXPECT_THROW(transientDistribution(chain, {1.0}, 1.0), FatalError);
}

TEST(TransientTest, ConservesAndStaysNonNegative)
{
    // Birth-death chain; mass conserved at several times.
    Ctmc chain;
    chain.reserveStates(6);
    for (std::size_t i = 0; i + 1 < 6; ++i) {
        chain.addTransition(i, i + 1, 0.7 + 0.1 * double(i));
        chain.addTransition(i + 1, i, 1.1 - 0.1 * double(i));
    }
    la::Vector init(6, 0.0);
    init[0] = 1.0;
    for (double t : {0.05, 0.5, 5.0, 50.0}) {
        const auto p = transientDistribution(chain, init, t);
        double sum = 0.0;
        for (double v : p) {
            EXPECT_GE(v, -1e-12);
            sum += v;
        }
        EXPECT_NEAR(sum, 1.0, 1e-9);
    }
}

TEST(TransientTest, ConvergesToStationary)
{
    Ctmc chain;
    chain.reserveStates(4);
    chain.addTransition(0, 1, 1.0);
    chain.addTransition(1, 2, 2.0);
    chain.addTransition(2, 3, 1.0);
    chain.addTransition(3, 0, 0.5);
    chain.addTransition(2, 0, 0.7);
    const auto pi = chain.stationaryDense();
    la::Vector init(4, 0.0);
    init[3] = 1.0;
    const auto p = transientDistribution(chain, init, 200.0);
    EXPECT_LT(totalVariation(p, pi), 1e-8);
}

TEST(TransientTest, SemigroupProperty)
{
    // p(t1 + t2) == evolve(evolve(p0, t1), t2).
    const Ctmc chain = twoState(0.8, 1.7);
    const la::Vector p0{0.6, 0.4};
    const auto one_shot = transientDistribution(chain, p0, 3.5);
    const auto first = transientDistribution(chain, p0, 1.25);
    const auto two_step = transientDistribution(chain, first, 2.25);
    EXPECT_NEAR(one_shot[0], two_step[0], 1e-9);
    EXPECT_NEAR(one_shot[1], two_step[1], 1e-9);
}

TEST(TransientTest, TotalVariationBasics)
{
    EXPECT_DOUBLE_EQ(totalVariation({1.0, 0.0}, {0.0, 1.0}), 1.0);
    EXPECT_DOUBLE_EQ(totalVariation({0.5, 0.5}, {0.5, 0.5}), 0.0);
    EXPECT_THROW(totalVariation({1.0}, {0.5, 0.5}), FatalError);
}

TEST(TransientTest, MixingTimeOrderedByLoad)
{
    // The SBUS chain takes longer to converge as the load grows --
    // quantifying the warm-up the simulations must discard.
    auto mixing_time = [](double lambda) {
        SbusParams prm{.p = 2, .lambda = lambda, .muN = 1.0,
                       .muS = 0.5, .r = 2};
        const SbusChain sbus(prm);
        const Ctmc chain = sbus.buildTruncated(30);
        la::Vector init(chain.states(), 0.0);
        init[0] = 1.0; // empty system
        const auto pi = chain.stationaryDense();
        return timeToConverge(chain, init, pi, 1e-3, 0.5);
    };
    const double light = mixing_time(0.05);
    const double heavy = mixing_time(0.35);
    EXPECT_LE(light, heavy);
    EXPECT_GT(light, 0.0);
}

} // namespace
} // namespace markov
} // namespace rsin
