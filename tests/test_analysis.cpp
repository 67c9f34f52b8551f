/**
 * @file
 * Tests for the analytical facade (rsin/analysis.hpp): traffic
 * normalization, the SBUS analysis entry point, and the Section IV
 * light-/heavy-load crossbar reductions, including the bracketing
 * property the paper uses them for.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "rsin/analysis.hpp"
#include "rsin/factory.hpp"
#include "topology/multistage.hpp"

namespace rsin {
namespace {

/**
 * The oracle for omegaLinkConflict(): enumerate every ordered pair of
 * paths (x, y), (x', y') with x != x', y != y' of an n x n Omega
 * network and compare them link by link at the internal boundaries
 * (boundary 0 links differ because x != x', the output links because
 * y != y').
 */
double
enumeratedLinkConflict(std::size_t size)
{
    const topology::MultistageNetwork net(topology::MultistageKind::Omega,
                                          size);
    const std::size_t inner = net.stages() - 1;
    std::vector<std::uint32_t> links(size * size * inner);
    for (std::size_t x = 0; x < size; ++x)
        for (std::size_t y = 0; y < size; ++y) {
            const topology::LinkPath path = net.path(x, y);
            for (std::size_t s = 0; s < inner; ++s)
                links[(x * size + y) * inner + s] = path[s + 1];
        }
    std::uint64_t conflicts = 0;
    std::uint64_t pairs = 0;
    for (std::size_t x = 0; x < size; ++x)
        for (std::size_t y = 0; y < size; ++y)
            for (std::size_t x2 = 0; x2 < size; ++x2)
                for (std::size_t y2 = 0; y2 < size; ++y2) {
                    if (x2 == x || y2 == y)
                        continue;
                    ++pairs;
                    const std::uint32_t *a =
                        links.data() + (x * size + y) * inner;
                    const std::uint32_t *b =
                        links.data() + (x2 * size + y2) * inner;
                    for (std::size_t s = 0; s < inner; ++s)
                        if (a[s] == b[s]) {
                            ++conflicts;
                            break;
                        }
                }
    return static_cast<double>(conflicts) / static_cast<double>(pairs);
}

TEST(AnalysisTest, RhoLambdaRoundTrip)
{
    for (const char *text : {"16/16x1x1 SBUS/2", "16/1x16x32 XBAR/1",
                             "16/4x4x4 OMEGA/2"}) {
        const auto cfg = SystemConfig::parse(text);
        for (double rho : {0.1, 0.5, 0.9}) {
            const double lambda = lambdaForRho(cfg, rho, 1.0, 0.1);
            EXPECT_NEAR(rhoForLambda(cfg, lambda, 1.0, 0.1), rho, 1e-12)
                << text;
        }
    }
}

TEST(AnalysisTest, SameRhoSameLambdaForEqualResourceTotals)
{
    // Configurations with equal p and total resources share the
    // normalization, so the figures load them identically.
    const auto a = SystemConfig::parse("16/16x1x1 SBUS/2");
    const auto b = SystemConfig::parse("16/1x16x32 XBAR/1");
    EXPECT_DOUBLE_EQ(lambdaForRho(a, 0.5, 1.0, 0.1),
                     lambdaForRho(b, 0.5, 1.0, 0.1));
}

TEST(AnalysisTest, AnalyzeSbusRejectsWrongClass)
{
    const auto omega = SystemConfig::parse("16/1x16x16 OMEGA/2");
    EXPECT_THROW(analyzeSbus(omega, 0.1, 1.0, 0.1), FatalError);
    const auto xbar = SystemConfig::parse("16/1x16x16 XBAR/2");
    EXPECT_THROW(xbarLightLoad(SystemConfig::parse("16/16x1x1 SBUS/2"),
                               0.1, 1.0, 0.1),
                 FatalError);
    EXPECT_NO_THROW(xbarLightLoad(xbar, 0.01, 1.0, 0.1));
}

TEST(AnalysisTest, HeavyLoadRequiresIntegralRatio)
{
    // j = 8, k = 3 is not integral either way.
    SystemConfig cfg;
    cfg.processors = 8;
    cfg.networks = 1;
    cfg.inputsPerNet = 8;
    cfg.outputsPerNet = 3;
    cfg.network = NetworkClass::Crossbar;
    cfg.resourcesPerPort = 2;
    EXPECT_THROW(xbarHeavyLoad(cfg, 0.05, 1.0, 0.1), FatalError);
}

TEST(AnalysisTest, LightLoadBelowHeavyLoad)
{
    // The light-load reduction sees all k*r resources privately; the
    // heavy-load reduction partitions them -- so light <= heavy at any
    // stable load (the two bracket the simulated truth).
    const auto cfg = SystemConfig::parse("16/1x16x16 XBAR/2");
    for (double rho : {0.1, 0.3, 0.5, 0.7}) {
        const double lambda = lambdaForRho(cfg, rho, 1.0, 0.1);
        const auto lo = xbarLightLoad(cfg, lambda, 1.0, 0.1);
        const auto hi = xbarHeavyLoad(cfg, lambda, 1.0, 0.1);
        ASSERT_TRUE(lo.stable);
        if (!hi.stable)
            continue; // heavy-load model saturates first, as expected
        EXPECT_LE(lo.queueingDelay, hi.queueingDelay * (1.0 + 1e-9))
            << "rho " << rho;
    }
}

TEST(AnalysisTest, ApproximationsBracketSimulation)
{
    const auto cfg = SystemConfig::parse("16/1x16x16 XBAR/2");
    const double mu_n = 1.0, mu_s = 0.1;
    for (double rho : {0.2, 0.5}) {
        workload::WorkloadParams params;
        params.muN = mu_n;
        params.muS = mu_s;
        params.lambda = lambdaForRho(cfg, rho, mu_n, mu_s);
        SimOptions opts;
        opts.seed = 77;
        opts.measureTasks = 20000;
        const auto sim = simulate(cfg, params, opts);
        ASSERT_FALSE(sim.saturated);
        const auto lo = xbarLightLoad(cfg, params.lambda, mu_n, mu_s);
        const auto hi = xbarHeavyLoad(cfg, params.lambda, mu_n, mu_s);
        EXPECT_LE(lo.queueingDelay, sim.meanDelay * 1.10 + 1e-3);
        if (hi.stable) {
            EXPECT_GE(hi.queueingDelay, sim.meanDelay * 0.90 - 1e-3);
        }
    }
}

TEST(AnalysisTest, MultistageLightLoadAnchorsSimulation)
{
    // The paper evaluates Omega networks by simulation alone; the
    // Section IV light-load reduction still anchors the light end.
    const auto cfg = SystemConfig::parse("16/1x16x16 OMEGA/2");
    const double mu_n = 1.0, mu_s = 0.1;
    const double lambda = lambdaForRho(cfg, 0.2, mu_n, mu_s);
    const auto approx = multistageLightLoad(cfg, lambda, mu_n, mu_s);
    ASSERT_TRUE(approx.stable);
    workload::WorkloadParams params;
    params.muN = mu_n;
    params.muS = mu_s;
    params.lambda = lambda;
    SimOptions opts;
    opts.seed = 88;
    opts.measureTasks = 25000;
    const auto sim = simulate(cfg, params, opts);
    ASSERT_FALSE(sim.saturated);
    EXPECT_NEAR(sim.meanDelay, approx.queueingDelay,
                0.15 * approx.queueingDelay + 0.005);
    EXPECT_THROW(multistageLightLoad(
                     SystemConfig::parse("16/1x16x16 XBAR/2"), 0.1,
                     mu_n, mu_s),
                 FatalError);
}

TEST(AnalysisTest, ExactInRangePredicatesFollowPhaseLimitAndShape)
{
    // In range: lumped phase space small enough for the chain solvers.
    EXPECT_TRUE(xbarExactInRange(SystemConfig::parse("16/2x8x8 XBAR/2")));
    EXPECT_TRUE(xbarExactInRange(SystemConfig::parse("16/4x4x4 XBAR/2")));
    EXPECT_TRUE(
        xbarExactInRange(SystemConfig::parse("16/1x16x32 XBAR/1")));
    // Out of range: 16x16 with r=2 has 4845 phases.
    EXPECT_FALSE(
        xbarExactInRange(SystemConfig::parse("16/1x16x16 XBAR/2")));
    // Wrong class.
    EXPECT_FALSE(
        xbarExactInRange(SystemConfig::parse("16/16x1x1 SBUS/2")));
    EXPECT_FALSE(
        xbarExactInRange(SystemConfig::parse("16/4x4x4 OMEGA/2")));

    EXPECT_TRUE(
        omegaExactInRange(SystemConfig::parse("16/4x4x4 OMEGA/2")));
    EXPECT_TRUE(
        omegaExactInRange(SystemConfig::parse("16/2x8x8 OMEGA/2")));
    EXPECT_FALSE(
        omegaExactInRange(SystemConfig::parse("16/1x16x16 OMEGA/2")));
    EXPECT_FALSE(
        omegaExactInRange(SystemConfig::parse("16/4x4x4 XBAR/2")));

    // Out-of-range calls must refuse rather than silently approximate.
    EXPECT_THROW(xbarExact(SystemConfig::parse("16/1x16x16 XBAR/2"),
                           0.05, 1.0, 0.1),
                 FatalError);
    EXPECT_THROW(omegaExact(SystemConfig::parse("16/1x16x16 OMEGA/2"),
                            0.05, 1.0, 0.1),
                 FatalError);
}

TEST(AnalysisTest, OmegaLinkConflictMatchesHandEnumeration)
{
    // 2x2: one stage, no internal boundary, no internal blocking.
    EXPECT_DOUBLE_EQ(omegaLinkConflict(2), 0.0);
    // 4x4: boundary-1 link of path (x, y) is (2x + y1) mod 4, so two
    // paths with x != x', y != y' collide iff x' = x + 2 (mod 4) and
    // y, y' share their top bit: 16 of the 144 pairs -> 1/9.
    EXPECT_NEAR(omegaLinkConflict(4), 1.0 / 9.0, 1e-12);
    // 8x8: inclusion-exclusion over the two internal boundaries gives
    // (192 + 192 - 64) / 3136 = 5/49.
    EXPECT_NEAR(omegaLinkConflict(8), 5.0 / 49.0, 1e-12);
}

TEST(AnalysisTest, OmegaLinkConflictEqualsTheEnumeration)
{
    // Bit for bit, so every Omega chain answer stays as it was when
    // the value came from the enumeration.
    for (std::size_t n = 2; n <= 64; n *= 2)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(omegaLinkConflict(n)),
                  std::bit_cast<std::uint64_t>(enumeratedLinkConflict(n)))
            << "n = " << n;
}

TEST(AnalysisTest, XbarExactSitsBetweenReductionsAndNearSimulation)
{
    const auto cfg = SystemConfig::parse("16/4x4x4 XBAR/2");
    const double mu_n = 1.0, mu_s = 0.1;
    for (double rho : {0.2, 0.5}) {
        const double lambda = lambdaForRho(cfg, rho, mu_n, mu_s);
        const auto exact = xbarExact(cfg, lambda, mu_n, mu_s);
        ASSERT_TRUE(exact.stable) << "rho " << rho;
        EXPECT_GT(exact.truncationBound, 0.0);
        EXPECT_LT(exact.truncationBound, 1e-4);

        // Section IV: the light-load reduction approximates the exact
        // chain at light load, and the heavy-load partition (which
        // removes sharing flexibility) upper-bounds it.
        if (rho <= 0.25) {
            const auto lo = xbarLightLoad(cfg, lambda, mu_n, mu_s);
            EXPECT_NEAR(lo.queueingDelay, exact.queueingDelay,
                        0.20 * exact.queueingDelay);
        }
        const auto hi = xbarHeavyLoad(cfg, lambda, mu_n, mu_s);
        if (hi.stable) {
            EXPECT_GE(hi.queueingDelay,
                      exact.queueingDelay * (1.0 - 1e-9));
        }

        workload::WorkloadParams params;
        params.muN = mu_n;
        params.muS = mu_s;
        params.lambda = lambda;
        SimOptions opts;
        opts.seed = 19;
        opts.measureTasks = 30000;
        const auto sim = simulate(cfg, params, opts);
        ASSERT_FALSE(sim.saturated);
        EXPECT_NEAR(sim.meanDelay, exact.queueingDelay,
                    0.10 * exact.queueingDelay +
                        exact.truncationBound * exact.queueingDelay +
                        0.005)
            << "rho " << rho;
    }
}

TEST(AnalysisTest, OmegaExactTracksSimulationAndExceedsCrossbar)
{
    const auto cfg = SystemConfig::parse("16/4x4x4 OMEGA/2");
    const double mu_n = 1.0, mu_s = 0.1;
    for (double rho : {0.2, 0.5}) {
        const double lambda = lambdaForRho(cfg, rho, mu_n, mu_s);
        const auto exact = omegaExact(cfg, lambda, mu_n, mu_s);
        ASSERT_TRUE(exact.stable) << "rho " << rho;
        EXPECT_GT(exact.truncationBound, 0.0);

        // Internal blocking can only hurt relative to a crossbar of
        // the same shape.
        auto xcfg = cfg;
        xcfg.network = NetworkClass::Crossbar;
        const auto xbar = xbarExact(xcfg, lambda, mu_n, mu_s);
        EXPECT_GE(exact.queueingDelay,
                  xbar.queueingDelay * (1.0 - 1e-9));

        workload::WorkloadParams params;
        params.muN = mu_n;
        params.muS = mu_s;
        params.lambda = lambda;
        SimOptions opts;
        opts.seed = 23;
        opts.measureTasks = 30000;
        const auto sim = simulate(cfg, params, opts);
        ASSERT_FALSE(sim.saturated);
        // The chain is exact in its lumped state space but models
        // internal blocking through the pairwise conflict factor, so
        // the band is wider than for the crossbar.
        EXPECT_NEAR(sim.meanDelay, exact.queueingDelay,
                    0.15 * exact.queueingDelay + 0.01)
            << "rho " << rho;
    }
}

TEST(AnalysisTest, PrivateBusUnlimitedMatchesMm1)
{
    const auto cfg = SystemConfig::parse("16/16x1x1 SBUS/1");
    const double mu_n = 1.0, mu_s = 0.1;
    const double lambda = 0.3; // per processor, one per bus
    const auto sol = privateBusUnlimited(cfg, lambda, mu_n, mu_s);
    ASSERT_TRUE(sol.stable);
    // One processor per private bus: M/M/1 with arrival lambda.
    EXPECT_NEAR(sol.queueingDelay, lambda / (mu_n * (mu_n - lambda)),
                1e-12);
    EXPECT_NEAR(sol.busUtilization, lambda / mu_n, 1e-12);
}

TEST(AnalysisTest, PrivateBusUnlimitedSaturatesAtBusCapacity)
{
    // The paper: "For infinitely many resources, the bus is the
    // bottleneck ... saturates when 16 lambda = mu_n" (per bus here).
    const auto cfg = SystemConfig::parse("16/16x1x1 SBUS/1");
    const auto sol = privateBusUnlimited(cfg, 1.1, 1.0, 0.1);
    EXPECT_FALSE(sol.stable);
    EXPECT_TRUE(std::isinf(sol.normalizedDelay));
}

TEST(AnalysisTest, SbusAnalysisMatchesUnpartitionedChainDirectly)
{
    // analyzeSbus must model one partition: 16/4x1x1 SBUS/8 is four
    // independent buses with 4 processors and 8 resources each.
    const auto cfg = SystemConfig::parse("16/4x1x1 SBUS/8");
    const double lambda = 0.05;
    const auto sol = analyzeSbus(cfg, lambda, 1.0, 0.1);
    markov::SbusParams prm;
    prm.p = 4;
    prm.lambda = lambda;
    prm.muN = 1.0;
    prm.muS = 0.1;
    prm.r = 8;
    const auto direct =
        markov::solveMatrixGeometric(markov::SbusChain(prm));
    EXPECT_DOUBLE_EQ(sol.queueingDelay, direct.queueingDelay);
}

} // namespace
} // namespace rsin
