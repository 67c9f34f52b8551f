/**
 * @file
 * Unit tests for the closed-form queueing models.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/error.hpp"
#include "queueing/mm_queues.hpp"

namespace rsin {
namespace queueing {
namespace {

TEST(Mm1Test, TextbookValues)
{
    // rho = 0.5: L = 1, W = 1/(mu - lambda) = 2/mu.
    const auto m = mm1(0.5, 1.0);
    EXPECT_TRUE(m.stable);
    EXPECT_DOUBLE_EQ(m.utilization, 0.5);
    EXPECT_DOUBLE_EQ(m.meanNumber, 1.0);
    EXPECT_DOUBLE_EQ(m.meanResponse, 2.0);
    EXPECT_DOUBLE_EQ(m.meanWait, 1.0);
    EXPECT_DOUBLE_EQ(m.meanQueue, 0.5);
}

TEST(Mm1Test, LittleLawHolds)
{
    for (double rho : {0.1, 0.3, 0.7, 0.9, 0.99}) {
        const auto m = mm1(rho, 1.0);
        EXPECT_NEAR(m.meanNumber, rho * m.meanResponse, 1e-12);
        EXPECT_NEAR(m.meanQueue, rho * m.meanWait, 1e-12);
    }
}

TEST(Mm1Test, UnstableWhenRhoAtLeastOne)
{
    EXPECT_FALSE(mm1(1.0, 1.0).stable);
    EXPECT_FALSE(mm1(2.0, 1.0).stable);
    EXPECT_TRUE(std::isinf(mm1(1.5, 1.0).meanWait));
}

TEST(Mm1Test, RejectsBadRates)
{
    EXPECT_THROW(mm1(-0.1, 1.0), FatalError);
    EXPECT_THROW(mm1(0.5, 0.0), FatalError);
}

TEST(ErlangTest, ErlangBKnownValues)
{
    // Classic table entry: A = 5 Erlangs, c = 10 -> B ~ 0.018385.
    EXPECT_NEAR(erlangB(5.0, 10), 0.018385, 1e-5);
    // B(0, c) = 0 for any c >= 1.
    EXPECT_DOUBLE_EQ(erlangB(0.0, 4), 0.0);
    // One server: B = A / (1 + A).
    EXPECT_NEAR(erlangB(2.0, 1), 2.0 / 3.0, 1e-12);
}

TEST(ErlangTest, ErlangCMatchesMm1ForSingleServer)
{
    // With c = 1, P(wait) = rho.
    for (double rho : {0.2, 0.5, 0.8}) {
        EXPECT_NEAR(erlangC(rho, 1.0, 1), rho, 1e-12);
    }
}

TEST(MmcTest, ReducesToMm1)
{
    const auto a = mmc(0.6, 1.0, 1);
    const auto b = mm1(0.6, 1.0);
    EXPECT_NEAR(a.meanWait, b.meanWait, 1e-12);
    EXPECT_NEAR(a.meanNumber, b.meanNumber, 1e-12);
}

TEST(MmcTest, MoreServersLessWaiting)
{
    const double lambda = 1.8;
    const double mu = 1.0;
    double prev = mmc(lambda, mu, 2).meanWait;
    for (std::size_t c = 3; c <= 8; ++c) {
        const double w = mmc(lambda, mu, c).meanWait;
        EXPECT_LT(w, prev);
        prev = w;
    }
}

TEST(MmcTest, UnstableDetected)
{
    EXPECT_FALSE(mmc(3.0, 1.0, 3).stable);
    EXPECT_TRUE(mmc(2.9, 1.0, 3).stable);
}

TEST(MmcKTest, MatchesErlangBWhenNoWaitingRoom)
{
    const double lambda = 3.0, mu = 1.0;
    const std::size_t c = 4;
    const auto fin = mmcK(lambda, mu, c, c);
    EXPECT_NEAR(fin.blockingProbability, erlangB(lambda / mu, c), 1e-12);
}

TEST(MmcKTest, ApproachesMmcWithLargeBuffer)
{
    const double lambda = 1.5, mu = 1.0;
    const std::size_t c = 2;
    const auto fin = mmcK(lambda, mu, c, 400);
    const auto inf = mmc(lambda, mu, c);
    EXPECT_NEAR(fin.base.meanWait, inf.meanWait, 1e-6);
    EXPECT_LT(fin.blockingProbability, 1e-8);
}

TEST(MmcKTest, ThroughputConservation)
{
    const auto fin = mmcK(5.0, 1.0, 2, 6);
    // Accepted arrivals == served departures == busy servers * mu.
    EXPECT_NEAR(fin.throughput,
                fin.base.utilization * 2.0 * 1.0, 1e-12);
}

TEST(TrafficIntensityTest, PaperDefinition)
{
    // Section III: rho = p*lambda*(1/(p*mu_n) + 1/(m*mu_s)).
    const double rho = paperTrafficIntensity(16, 32, 0.5, 1.0, 0.1);
    EXPECT_NEAR(rho, 16 * 0.5 * (1.0 / 16.0 + 1.0 / 3.2), 1e-12);
}

TEST(TrafficIntensityTest, RoundTrip)
{
    for (double rho : {0.1, 0.5, 0.9}) {
        const double lambda = arrivalRateForIntensity(16, 32, rho, 1.0, 0.1);
        EXPECT_NEAR(paperTrafficIntensity(16, 32, lambda, 1.0, 0.1), rho,
                    1e-12);
    }
}

} // namespace
} // namespace queueing
} // namespace rsin
