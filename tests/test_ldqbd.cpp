/**
 * @file
 * Tests for the exact crossbar/Omega LD-QBD chains and the
 * solveStationary dispatch: oracle agreement with the single-bus
 * matrix-geometric solver (a crossbar with one bus *is* the SBUS
 * chain), dense-vs-sparse backend agreement, the certified
 * truncation bound covering the observed truncation error across a
 * parameter sweep, golden bit patterns of the paper's cells, and the
 * deterministic work counters.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "markov/ldqbd.hpp"
#include "markov/omega_model.hpp"
#include "markov/sbus_model.hpp"
#include "markov/sbus_solvers.hpp"
#include "markov/xbar_model.hpp"
#include "rsin/analysis.hpp"
#include "rsin/config.hpp"

namespace rsin {
namespace markov {
namespace {

double
relDiff(double a, double b)
{
    return std::fabs(a - b) / std::max(std::fabs(b), 1e-12);
}

/**
 * The chain rsin::xbarExact / omegaExact solve for a paper config at
 * mu_s / mu_n = @p ratio (mu_n = 1) and traffic intensity @p rho.
 */
std::unique_ptr<XbarChainModel>
paperChain(const char *config, double ratio, double rho)
{
    const SystemConfig cfg = SystemConfig::parse(config);
    NetChainParams prm;
    prm.processors = cfg.inputsPerNet;
    prm.buses = cfg.outputsPerNet;
    prm.resources = cfg.resourcesPerPort;
    prm.muN = 1.0;
    prm.muS = ratio;
    prm.lambda = lambdaForRho(cfg, rho, prm.muN, prm.muS);
    if (cfg.network == NetworkClass::Omega) {
        prm.linkConflict = omegaLinkConflict(cfg.inputsPerNet);
        return std::make_unique<OmegaChainModel>(prm);
    }
    return std::make_unique<XbarChainModel>(prm);
}

TEST(NetChainTest, PhaseCountsMatchTheClosedForm)
{
    // C(k + 2r, 2r) when the processor constraint never binds.
    EXPECT_EQ(netChainPhaseCount(16, 16, 2), 4845u);
    EXPECT_EQ(netChainPhaseCount(16, 8, 2), 495u);
    EXPECT_EQ(netChainPhaseCount(16, 4, 2), 70u);
    EXPECT_EQ(netChainPhaseCount(16, 2, 2), 15u);
    // j = 16 < k = 32 makes the transmitting cap bite.
    EXPECT_EQ(netChainPhaseCount(16, 32, 1), 425u);
    // The enumeration agrees with the formula.
    NetChainParams prm;
    prm.processors = 3;
    prm.buses = 5;
    prm.resources = 2;
    const XbarChainModel model(prm);
    EXPECT_EQ(model.phases(), netChainPhaseCount(3, 5, 2));
}

TEST(NetChainTest, HomogeneityGapDecaysGeometrically)
{
    NetChainParams prm;
    prm.processors = 8;
    prm.buses = 2;
    const XbarChainModel model(prm);
    EXPECT_DOUBLE_EQ(model.homogeneityGap(0), 1.0);
    EXPECT_GT(model.homogeneityGap(4), model.homogeneityGap(8));
    EXPECT_NEAR(model.homogeneityGap(16), std::pow(7.0 / 8.0, 16.0),
                1e-15);
    prm.processors = 1;
    const XbarChainModel lone(prm);
    EXPECT_DOUBLE_EQ(lone.homogeneityGap(3), 0.0);
}

TEST(NetChainTest, GeneratorRowsSumToZeroAcrossLevels)
{
    NetChainParams prm;
    prm.processors = 6;
    prm.buses = 3;
    prm.resources = 2;
    prm.lambda = 0.02;
    prm.muN = 1.0;
    prm.muS = 0.1;
    const OmegaChainModel model({.processors = 6,
                                 .buses = 3,
                                 .resources = 2,
                                 .lambda = 0.02,
                                 .muN = 1.0,
                                 .muS = 0.1,
                                 .linkConflict = 0.25});
    const XbarChainModel xbar(prm);
    const LdQbdModel *models[] = {&model, &xbar};
    for (const LdQbdModel *m : models) {
        const std::size_t n = m->phases();
        for (const std::size_t level : {0u, 1u, 2u, 7u, 40u}) {
            la::Triplets a0, a1, a2;
            m->levelBlocks(level, a0, a1, a2);
            if (level == 0) {
                EXPECT_TRUE(a2.empty());
            }
            la::Vector row(n, 0.0);
            for (const auto *block : {&a0, &a1, &a2})
                for (const auto &e : *block)
                    row[e.row] += e.value;
            for (std::size_t i = 0; i < n; ++i)
                EXPECT_NEAR(row[i], 0.0, 1e-10)
                    << "level " << level << " phase " << i;
        }
        la::Triplets a0, a1, a2;
        m->limitBlocks(a0, a1, a2);
        la::Vector row(n, 0.0);
        for (const auto *block : {&a0, &a1, &a2})
            for (const auto &e : *block)
                row[e.row] += e.value;
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_NEAR(row[i], 0.0, 1e-10) << "limit phase " << i;
    }
}

/**
 * A crossbar with a single bus is exactly the single-shared-bus chain,
 * so solveXbarChain must reproduce the matrix-geometric SBUS solver.
 */
TEST(NetChainTest, SingleBusCrossbarMatchesSbusOracle)
{
    for (const std::size_t r : {1u, 2u, 4u})
        for (const std::size_t j : {1u, 4u, 16u})
            for (const double ratio : {0.1, 10.0})
                for (const double load : {0.3, 0.8}) {
                    SbusParams sp;
                    sp.p = j;
                    sp.r = r;
                    sp.muN = 1.0;
                    sp.muS = 1.0 / ratio;
                    const SbusChain chain(sp);
                    const double sat = chain.saturationThroughput();
                    sp.lambda =
                        load * sat / static_cast<double>(j);
                    const SbusChain loaded(sp);
                    const SbusSolution oracle =
                        solveMatrixGeometric(loaded);
                    ASSERT_TRUE(oracle.stable);

                    NetChainParams prm;
                    prm.processors = j;
                    prm.buses = 1;
                    prm.resources = r;
                    prm.lambda = sp.lambda;
                    prm.muN = sp.muN;
                    prm.muS = sp.muS;
                    const SbusSolution sol = solveXbarChain(prm);
                    ASSERT_TRUE(sol.stable);
                    const char *label = "r/j/ratio/load";
                    EXPECT_LT(relDiff(sol.normalizedDelay,
                                      oracle.normalizedDelay),
                              1e-6)
                        << label << " " << r << "/" << j << "/"
                        << ratio << "/" << load;
                    EXPECT_LT(relDiff(sol.meanQueueLength,
                                      oracle.meanQueueLength),
                              1e-6);
                    EXPECT_NEAR(sol.busUtilization,
                                oracle.busUtilization, 1e-7);
                    EXPECT_NEAR(sol.resourceUtilization,
                                oracle.resourceUtilization, 1e-7);
                    EXPECT_NEAR(sol.probEmptySystem,
                                oracle.probEmptySystem, 1e-7);
                    EXPECT_NEAR(sol.probNoWait, oracle.probNoWait,
                                1e-7);
                }
}

/** A 2x2 Omega network has no internal boundary, so c1 = 0 and the
 *  Omega chain must coincide with the crossbar chain. */
TEST(NetChainTest, ConflictFreeOmegaMatchesCrossbar)
{
    NetChainParams prm;
    prm.processors = 2;
    prm.buses = 2;
    prm.resources = 2;
    prm.lambda = 0.05;
    prm.muN = 1.0;
    prm.muS = 0.1;
    prm.linkConflict = 0.0;
    const SbusSolution omega = solveOmegaChain(prm);
    const SbusSolution xbar = solveXbarChain(prm);
    EXPECT_DOUBLE_EQ(omega.normalizedDelay, xbar.normalizedDelay);
    EXPECT_DOUBLE_EQ(omega.busUtilization, xbar.busUtilization);

    // A genuine conflict probability must hurt, never help.
    prm.linkConflict = 0.3;
    const SbusSolution blocked = solveOmegaChain(prm);
    ASSERT_TRUE(blocked.stable);
    EXPECT_GT(blocked.normalizedDelay, xbar.normalizedDelay);
    EXPECT_LT(blocked.probNoWait, xbar.probNoWait);
}

TEST(SolveStationaryTest, AutoDispatchesOnBlockSize)
{
    NetChainParams small;
    small.processors = 16;
    small.buses = 4;
    small.resources = 2; // 70 phases -> dense
    small.lambda = 0.02;
    small.muS = 0.1;
    const XbarChainModel small_model(small);
    const LdQbdResult dense = solveStationary(small_model);
    EXPECT_EQ(dense.backend, LdQbdBackend::DenseCensored);
    EXPECT_TRUE(dense.converged);

    NetChainParams large = small;
    large.buses = 8; // 495 phases -> sparse
    const XbarChainModel large_model(large);
    const LdQbdResult sparse = solveStationary(large_model);
    EXPECT_EQ(sparse.backend, LdQbdBackend::SparseKrylov);
    EXPECT_TRUE(sparse.converged);

    // Explicit backend requests are honored.
    LdQbdOptions opts;
    opts.backend = LdQbdBackend::SparseKrylov;
    EXPECT_EQ(solveStationary(small_model, opts).backend,
              LdQbdBackend::SparseKrylov);
}

TEST(SolveStationaryTest, BackendsAgreeOnTheSameChain)
{
    NetChainParams prm;
    prm.processors = 8;
    prm.buses = 4;
    prm.resources = 2;
    prm.muN = 1.0;
    prm.muS = 0.1;
    for (const double load : {0.3, 0.7}) {
        // Capacity is resource-bound at k*r*muS; stay below it.
        prm.lambda = load * 4.0 * 2.0 * 0.1 / 8.0;
        const XbarChainModel model(prm);
        LdQbdOptions opts;
        opts.backend = LdQbdBackend::DenseCensored;
        const LdQbdResult dense = solveStationary(model, opts);
        opts.backend = LdQbdBackend::SparseKrylov;
        const LdQbdResult krylov = solveStationary(model, opts);
        ASSERT_TRUE(dense.stable && krylov.stable);
        EXPECT_LT(relDiff(krylov.meanLevel, dense.meanLevel), 1e-5)
            << "load " << load;
        for (std::size_t p = 0; p < model.phases(); ++p)
            EXPECT_NEAR(krylov.phaseMarginal[p],
                        dense.phaseMarginal[p], 1e-6);
    }
}

TEST(SolveStationaryTest, InstabilityDetectedByEveryBackend)
{
    NetChainParams prm;
    prm.processors = 4;
    prm.buses = 2;
    prm.resources = 1;
    prm.lambda = 10.0; // far beyond capacity
    prm.muS = 0.1;
    const XbarChainModel model(prm);
    for (const LdQbdBackend backend :
         {LdQbdBackend::DenseCensored, LdQbdBackend::SparseKrylov}) {
        LdQbdOptions opts;
        opts.backend = backend;
        const LdQbdResult res = solveStationary(model, opts);
        EXPECT_FALSE(res.stable);
    }
    const SbusSolution sol = solveXbarChain(prm);
    EXPECT_FALSE(sol.stable);
    EXPECT_TRUE(std::isinf(sol.normalizedDelay));

    // Close to capacity on both sides, the dense and Krylov verdicts
    // must agree.  Each of the two buses above cycles through one
    // transmission (mean 1/muN) and one service (1/muS) per task, so
    // the four processors saturate at lambda = 2 / 11 / 4.  (Closer
    // below capacity GMRES stops converging on this 6-phase chain.)
    struct Point
    {
        std::unique_ptr<XbarChainModel> model;
        bool stable;
        const char *label;
    };
    std::vector<Point> points;
    for (const double load : {0.9, 1.01}) {
        prm.lambda = load * (2.0 / 11.0) / 4.0;
        points.push_back({std::make_unique<XbarChainModel>(prm),
                          load < 1.0,
                          load < 1.0 ? "4/2 xbar at 0.9 capacity"
                                     : "4/2 xbar at 1.01 capacity"});
    }
    // The Omega reference cells either side of its knee at ratio 10.
    points.push_back({paperChain("16/4x4x4 OMEGA/2", 10.0, 0.8), true,
                      "16/4x4x4 OMEGA/2 ratio 10 rho 0.8"});
    points.push_back({paperChain("16/4x4x4 OMEGA/2", 10.0, 0.9), false,
                      "16/4x4x4 OMEGA/2 ratio 10 rho 0.9"});
    for (const Point &point : points) {
        // The verdict precedes the depth loop; a shallow cap keeps the
        // stable solves cheap.
        LdQbdOptions opts;
        opts.maxLevels = 16;
        opts.backend = LdQbdBackend::DenseCensored;
        const LdQbdResult dense = solveStationary(*point.model, opts);
        opts.backend = LdQbdBackend::SparseKrylov;
        const LdQbdResult krylov = solveStationary(*point.model, opts);
        EXPECT_EQ(dense.stable, point.stable) << point.label;
        EXPECT_EQ(krylov.stable, dense.stable) << point.label;
    }
}

/**
 * The certificate property: the reported truncation bound dominates
 * the observed truncation error, measured against a much deeper
 * reference solve, across a parameter sweep and both backends.
 */
TEST(SolveStationaryTest, TruncationBoundCoversObservedError)
{
    std::size_t cells = 0;
    for (const std::size_t k : {1u, 2u, 4u})
        for (const std::size_t r : {1u, 2u})
            for (const double ratio : {0.1, 10.0})
                for (const double load : {0.5, 0.85}) {
                    NetChainParams prm;
                    prm.processors = 8;
                    prm.buses = k;
                    prm.resources = r;
                    prm.muN = 1.0;
                    prm.muS = 1.0 / ratio;
                    // Rough resource-bound capacity k*r*muS; the bus
                    // bound k*muN matters at ratio 10.
                    const double capacity =
                        std::min(static_cast<double>(k) * prm.muN,
                                 static_cast<double>(k * r) * prm.muS);
                    prm.lambda = load * capacity / 8.0;
                    const XbarChainModel model(prm);

                    LdQbdOptions coarse;
                    coarse.relTolerance = 1e-5;
                    coarse.backend = LdQbdBackend::DenseCensored;
                    LdQbdOptions fine;
                    fine.relTolerance = 1e-11;
                    fine.backend = LdQbdBackend::DenseCensored;
                    const LdQbdResult ref =
                        solveStationary(model, fine);
                    if (!ref.stable)
                        continue;
                    for (const LdQbdBackend backend :
                         {LdQbdBackend::DenseCensored,
                          LdQbdBackend::SparseKrylov}) {
                        coarse.backend = backend;
                        const LdQbdResult res =
                            solveStationary(model, coarse);
                        ASSERT_TRUE(res.stable);
                        const double observed =
                            relDiff(res.meanLevel, ref.meanLevel);
                        EXPECT_LE(observed, res.truncationBound)
                            << "k=" << k << " r=" << r
                            << " ratio=" << ratio << " load=" << load
                            << " backend="
                            << static_cast<int>(backend);
                        ++cells;
                    }
                }
    EXPECT_GE(cells, 30u); // the sweep must actually run
}

/**
 * The sparse path warm-starts each depth from the zero-padded previous
 * one.  At light load that vector can already meet the GMRES residual
 * target; returned untouched, it would repeat the previous depth's
 * answer bit for bit and "certify" a bound of exactly 0.  Every depth
 * must be a real solve, so the bound is positive and covers the
 * distance to a cold solve at twice the depth.
 */
TEST(SolveStationaryTest, EveryDepthIsARealSolve)
{
    for (const char *config : {"16/2x8x8 XBAR/2", "16/2x8x8 OMEGA/2"})
        for (const double rho : {0.1, 0.2}) {
            const auto model = paperChain(config, 0.1, rho);
            const LdQbdResult res = solveStationary(*model);
            ASSERT_EQ(res.backend, LdQbdBackend::SparseKrylov);
            ASSERT_TRUE(res.stable && res.converged);
            EXPECT_GT(res.truncationBound, 0.0)
                << config << " rho " << rho;

            LdQbdOptions cold;
            cold.initialLevels = 2 * res.levelsUsed;
            cold.maxLevels = 2 * res.levelsUsed;
            const LdQbdResult deep = solveStationary(*model, cold);
            ASSERT_EQ(deep.levelsUsed, 2 * res.levelsUsed);
            EXPECT_LE(relDiff(res.meanLevel, deep.meanLevel),
                      res.truncationBound)
                << config << " rho " << rho;
        }
}

/**
 * Bit patterns recorded with the solver that refactored every level
 * block at every depth and solved the preconditioner's blocks one
 * dense single-vector sweep at a time: factoring once and sweeping
 * only the nonzeros, many right-hand sides at once, must reproduce
 * them exactly.  The dense path is pinned too (its instability gate
 * changed from the spectral radius of R to the drift test).
 */
TEST(SolveStationaryTest, GoldenBitsOfThePaperCells)
{
    struct Golden
    {
        const char *config;
        double rho;
        LdQbdBackend backend;
        std::uint64_t meanLevel;
        std::uint64_t truncationBound;
        std::size_t levelsUsed;
    };
    const Golden cells[] = {
        {"16/2x8x8 XBAR/2", 0.3, LdQbdBackend::SparseKrylov,
         0x3f95680ef76a701f, 0x3e8bb46d7348f7e5, 16},
        {"16/2x8x8 XBAR/2", 0.5, LdQbdBackend::SparseKrylov,
         0x3fb028918b58869e, 0x3ed3a0e281929a7c, 32},
        {"16/2x8x8 OMEGA/2", 0.3, LdQbdBackend::SparseKrylov,
         0x3f95727f03197ba7, 0x3e8e570f5562dd5b, 16},
        {"16/2x8x8 OMEGA/2", 0.5, LdQbdBackend::SparseKrylov,
         0x3fb0a26e6a51acd7, 0x3ed544d8b22d1667, 32},
        {"16/4x4x4 XBAR/2", 0.5, LdQbdBackend::DenseCensored,
         0x3fafbc064622f163, 0x3e404bb4461d9b25, 32},
    };
    for (const Golden &cell : cells) {
        const auto model = paperChain(cell.config, 0.1, cell.rho);
        const LdQbdResult res = solveStationary(*model);
        EXPECT_EQ(res.backend, cell.backend) << cell.config;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(res.meanLevel),
                  cell.meanLevel)
            << cell.config << " rho " << cell.rho;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(res.truncationBound),
                  cell.truncationBound)
            << cell.config << " rho " << cell.rho;
        EXPECT_EQ(res.levelsUsed, cell.levelsUsed)
            << cell.config << " rho " << cell.rho;
    }
}

TEST(SolveStationaryTest, WorkCountersAreDeterministic)
{
    // A default 495-phase sparse solve that doubles 8 -> 16 -> 32
    // factors its 8 preconditioner level blocks once.
    const auto sparse_model = paperChain("16/2x8x8 XBAR/2", 0.1, 0.5);
    const LdQbdResult sparse = solveStationary(*sparse_model);
    ASSERT_EQ(sparse.backend, LdQbdBackend::SparseKrylov);
    ASSERT_EQ(sparse.levelsUsed, 32u);
    EXPECT_EQ(sparse.factorizations, 8u);
    EXPECT_EQ(sparse.depthSolves, 3u);
    EXPECT_GT(sparse.gmresIterations, 0u);
    const LdQbdResult again = solveStationary(*sparse_model);
    EXPECT_EQ(again.factorizations, sparse.factorizations);
    EXPECT_EQ(again.gmresIterations, sparse.gmresIterations);
    EXPECT_EQ(again.depthSolves, sparse.depthSolves);

    // Below 8 preconditioner levels the top level folds A0 into its
    // block, so each such depth factors that block on its own: depth 4
    // takes levels 0-3 plus its top, depth 8 adds levels 4-7.
    LdQbdOptions shallow;
    shallow.initialLevels = 4;
    shallow.maxLevels = 8;
    const LdQbdResult folded = solveStationary(*sparse_model, shallow);
    EXPECT_EQ(folded.depthSolves, 2u);
    EXPECT_EQ(folded.factorizations, 5u + 4u);

    // The dense path factors one block per level of every depth.
    const auto dense_model = paperChain("16/4x4x4 XBAR/2", 0.1, 0.5);
    const LdQbdResult dense = solveStationary(*dense_model);
    ASSERT_EQ(dense.backend, LdQbdBackend::DenseCensored);
    ASSERT_EQ(dense.levelsUsed, 32u);
    EXPECT_EQ(dense.depthSolves, 3u);
    EXPECT_EQ(dense.factorizations, 9u + 17u + 33u);
    EXPECT_EQ(dense.gmresIterations, 0u);
}

} // namespace
} // namespace markov
} // namespace rsin
