/**
 * @file
 * Tests for the packet-switched Omega system: store-and-forward
 * pipelining, delivery, configuration checks, determinism and the
 * paper's circuit-vs-packet claims.
 */

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "rsin/analysis.hpp"
#include "rsin/factory.hpp"
#include "rsin/packet_system.hpp"
#include "topology/multistage.hpp"

namespace rsin {
namespace {

using topology::MultistageKind;
using topology::MultistageNetwork;

workload::WorkloadParams
makeParams(double lambda, double mu_n, double mu_s)
{
    workload::WorkloadParams p;
    p.lambda = lambda;
    p.muN = mu_n;
    p.muS = mu_s;
    return p;
}

SimOptions
quickOptions(std::uint64_t seed)
{
    SimOptions o;
    o.seed = seed;
    o.warmupTasks = 1000;
    o.measureTasks = 12000;
    return o;
}

TEST(PacketSystemTest, IsolatedPipelineMatchesClosedForm)
{
    // At light load with fast service a task meets an empty network,
    // so its response time is its service plus a (stages+1)-hop
    // store-and-forward pipeline of P packets, whose mean completion
    // time with exponential hops of rate R is close to
    // (hops + P - 1) / R.  (Exponential hop times make the exact
    // constant slightly larger because stage queues couple; the test
    // checks the pipelining trend and a generous band around the
    // formula.)
    const auto cfg = SystemConfig::parse("8/1x8x8 OMEGA/8");
    const auto params = makeParams(0.01, 1.0, 100.0);
    const std::size_t hops =
        MultistageNetwork(MultistageKind::Omega, 8).stages() + 1;
    for (std::uint32_t packets : {1u, 4u, 8u}) {
        PacketOptions popt;
        popt.packetsPerTask = packets;
        popt.overhead = 0.0;
        PacketOmegaSystem sys(cfg, params, quickOptions(300 + packets),
                              popt);
        const auto res = sys.run();
        ASSERT_TRUE(res.ok()) << "P = " << packets;
        const double rate = static_cast<double>(packets) * params.muN;
        const double ideal =
            static_cast<double>(hops + packets - 1) / rate;
        const double pipeline = res.meanResponse - 1.0 / params.muS;
        EXPECT_GT(pipeline, ideal * 0.9) << "P = " << packets;
        EXPECT_LT(pipeline, ideal * 1.8) << "P = " << packets;
    }
}

TEST(PacketSystemTest, RunsAndCompletes)
{
    const auto cfg = SystemConfig::parse("8/1x8x8 OMEGA/2");
    PacketOmegaSystem sys(cfg, makeParams(0.1, 1.0, 0.5),
                          quickOptions(5), {});
    const auto res = sys.run();
    EXPECT_FALSE(res.saturated);
    EXPECT_GT(res.completedTasks, 12000u);
    EXPECT_GT(sys.networkStats().packetsDelivered, 4u * 12000u);
}

TEST(PacketSystemTest, ValidatesConfiguration)
{
    const auto params = makeParams(0.1, 1.0, 0.5);
    PacketOptions popt;
    EXPECT_THROW(PacketOmegaSystem(SystemConfig::parse("8/8x1x1 SBUS/1"),
                                   params, quickOptions(1), popt),
                 FatalError);
    popt.packetsPerTask = 0;
    EXPECT_THROW(PacketOmegaSystem(
                     SystemConfig::parse("8/1x8x8 OMEGA/2"), params,
                     quickOptions(1), popt),
                 FatalError);
    popt.packetsPerTask = 2;
    popt.overhead = -0.5;
    EXPECT_THROW(PacketOmegaSystem(
                     SystemConfig::parse("8/1x8x8 OMEGA/2"), params,
                     quickOptions(1), popt),
                 FatalError);
}

TEST(PacketSystemTest, MorePacketsPipelineBetterAtZeroOverhead)
{
    // With no header overhead, splitting finer reduces the
    // store-and-forward serialization (n+P hops of 1/(P muN) each),
    // so response time falls with P.
    const auto cfg = SystemConfig::parse("16/1x16x16 OMEGA/2");
    const auto params = makeParams(0.02, 1.0, 0.5);
    double prev = 1e100;
    for (std::uint32_t packets : {1u, 4u, 16u}) {
        PacketOptions popt;
        popt.packetsPerTask = packets;
        popt.overhead = 0.0;
        PacketOmegaSystem sys(cfg, params, quickOptions(9), popt);
        const auto res = sys.run();
        ASSERT_FALSE(res.saturated);
        EXPECT_LT(res.meanResponse, prev) << "P = " << packets;
        prev = res.meanResponse;
    }
}

TEST(PacketSystemTest, CircuitSwitchingWinsAtModerateLoad)
{
    // The paper's Section II argument: packets add reassembly wait and
    // per-hop store-and-forward, so the circuit-switched RSIN delivers
    // better response at the same load.
    const auto cfg = SystemConfig::parse("16/1x16x16 OMEGA/2");
    const double mu_n = 1.0, mu_s = 0.1;
    workload::WorkloadParams params;
    params.muN = mu_n;
    params.muS = mu_s;
    params.lambda = lambdaForRho(cfg, 0.5, mu_n, mu_s);

    const auto circuit = simulate(cfg, params, quickOptions(21));
    PacketOptions popt;
    popt.packetsPerTask = 4;
    popt.overhead = 0.1;
    PacketOmegaSystem packet_sys(cfg, params, quickOptions(22), popt);
    const auto packet_res = packet_sys.run();
    ASSERT_FALSE(circuit.saturated);
    ASSERT_FALSE(packet_res.saturated);
    EXPECT_LT(circuit.meanResponse, packet_res.meanResponse);
}

TEST(PacketSystemTest, Deterministic)
{
    const auto cfg = SystemConfig::parse("8/1x8x8 OMEGA/2");
    const auto params = makeParams(0.1, 1.0, 0.5);
    PacketOmegaSystem a(cfg, params, quickOptions(33), {});
    PacketOmegaSystem b(cfg, params, quickOptions(33), {});
    const auto ra = a.run();
    const auto rb = b.run();
    EXPECT_DOUBLE_EQ(ra.meanResponse, rb.meanResponse);
    EXPECT_EQ(ra.completedTasks, rb.completedTasks);
}

} // namespace
} // namespace rsin
