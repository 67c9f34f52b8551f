/**
 * @file
 * Tests for the exact crossbar/Omega LD-QBD chains and solveStationary:
 * bit fingerprints of the level blocks, oracle agreement with the
 * single-bus matrix-geometric solver (a crossbar with one bus *is* the
 * SBUS chain), agreement with a dense LU solve of the same truncated
 * generator (close below capacity too), the certified truncation bound
 * covering the observed truncation error across a parameter sweep,
 * golden bit patterns of the paper's cells, and the deterministic work
 * counters.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
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
 * FNV-1a over the blocks' entries as a sorted set of (block, row,
 * col, value bits): emission order does not count, every bit of every
 * value does.
 */
std::uint64_t
blockFingerprint(const la::Triplets &a0, const la::Triplets &a1,
                 const la::Triplets &a2)
{
    std::vector<std::array<std::uint64_t, 4>> entries;
    std::uint64_t block = 0;
    for (const la::Triplets *b : {&a0, &a1, &a2}) {
        for (const la::Triplet &e : *b)
            entries.push_back({block, e.row, e.col,
                               std::bit_cast<std::uint64_t>(e.value)});
        ++block;
    }
    std::sort(entries.begin(), entries.end());
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const auto &entry : entries)
        for (const std::uint64_t word : entry)
            for (int byte = 0; byte < 8; ++byte) {
                h ^= (word >> (8 * byte)) & 0xffU;
                h *= 0x100000001b3ULL;
            }
    return h;
}

/**
 * Fingerprints recorded with the assembly that enumerated every
 * transition afresh at each level: the level-independent transition
 * table, re-weighted per level, must reproduce every entry bit for
 * bit, the limiting blocks included.
 */
TEST(NetChainTest, LevelBlocksKeepTheirBits)
{
    struct Pinned
    {
        const char *config;
        std::uint64_t levels[8];
        std::uint64_t limit;
    };
    const std::size_t levels[] = {0, 1, 2, 7, 8, 16, 64, 200};
    const Pinned pinned[] = {
        {"16/4x4x4 XBAR/2",
         {0x248ac6dcc1922426, 0xa74313b13984f590,
          0x2b7d74bc9ab5c644, 0x4b6f40ffaf9c193e,
          0xa7d57dfecf82f25a, 0x9bdd3c82783c56a8,
          0x26500660e8cab4c0, 0xc7c6c7c90fce98b5},
         0xc7c6c7c90fce98b5},
        {"16/4x4x4 OMEGA/2",
         {0x674053e30be273a5, 0x8b3653d29a3ffc64,
          0xc3dd5d9259da642, 0x218888c085a0bcb1,
          0xc8048634c5944ddc, 0x6905f9dc0efe5aae,
          0x5d19be7c39d4b96a, 0xd531f3a0f9b8fa19},
         0xd531f3a0f9b8fa19},
        {"16/2x8x8 XBAR/2",
         {0x438fbeb5a3da4e1f, 0xcfd4b18e08a0f5d4,
          0xfd1fa43ec22bde6c, 0x36e34daacf5a8ce6,
          0x8e001acec5ea6722, 0x6083e9a03528cfe5,
          0xc699feb22da0df5b, 0xe454ff1ab90c8c30},
         0xdb9a00f70d063052},
        {"16/2x8x8 OMEGA/2",
         {0xdf598549e1c7cd96, 0xe1168344a5687d61,
          0x41acb51bf5e69702, 0xe20e46a70f77495c,
          0xadd76888628ea25d, 0xe35f91305abf33f4,
          0x581e9ccba0c6addb, 0x3d6db33441d9f36b},
         0x4d731078a65ac010},
        {"16/1x16x32 XBAR/1",
         {0xaaaefd39bcf4c434, 0x90634478e6def276,
          0x7f36c3ea253743e2, 0xe7faaeb815d8abb2,
          0xa0056557129a2626, 0xfb84082a23d08dad,
          0x9c8f02d17e533635, 0xd578e92e956b10f0},
         0xeb6d25a577d43084},
    };
    for (const Pinned &pin : pinned) {
        const auto model = paperChain(pin.config, 1.0, 0.7);
        for (std::size_t i = 0; i < std::size(levels); ++i) {
            la::Triplets a0, a1, a2;
            model->levelBlocks(levels[i], a0, a1, a2);
            EXPECT_EQ(blockFingerprint(a0, a1, a2), pin.levels[i])
                << pin.config << " level " << levels[i] << std::hex
                << " got 0x" << blockFingerprint(a0, a1, a2);
        }
        la::Triplets a0, a1, a2;
        model->limitBlocks(a0, a1, a2);
        EXPECT_EQ(blockFingerprint(a0, a1, a2), pin.limit)
            << pin.config << " limit" << std::hex << " got 0x"
            << blockFingerprint(a0, a1, a2);
    }
}

/**
 * The smoother factors its blocks without pivoting, which reproduces
 * la::LuFactors only while partial pivoting would keep every row in
 * place, as it does on a column diagonally dominant block.  The
 * transposed level-0 and limiting A1 blocks of the paper shapes must
 * solve bit for bit as LuFactors solves them, so a model change that
 * would need pivoting shows here instead of quietly changing the
 * factors.
 */
TEST(NetChainTest, SmootherBlocksFactorLikeDenseLu)
{
    for (const char *config :
         {"16/4x4x4 XBAR/2", "16/4x4x4 OMEGA/2", "16/2x8x8 XBAR/2",
          "16/2x8x8 OMEGA/2", "16/1x16x32 XBAR/1"})
        for (const double ratio : {0.1, 10.0}) {
            const auto model = paperChain(config, ratio, 0.7);
            const std::size_t n = model->phases();
            la::Triplets a0, a1, a2, l0, l1, l2;
            model->levelBlocks(0, a0, a1, a2);
            model->limitBlocks(l0, l1, l2);
            for (la::Triplets *block : {&a1, &l1}) {
                la::Matrix dense(n, n, 0.0);
                for (auto &e : *block) {
                    std::swap(e.row, e.col);
                    dense(e.row, e.col) += e.value;
                }
                const la::CompressedLu sparse(n, *block);
                const la::LuFactors oracle(std::move(dense));
                // Three right-hand sides: one alone, then all three as
                // one row-major sweep.
                std::vector<la::Vector> rhs(3, la::Vector(n));
                for (std::size_t c = 0; c < 3; ++c)
                    for (std::size_t i = 0; i < n; ++i)
                        rhs[c][i] = std::sin(static_cast<double>(
                            (c + 1) * (i + 1)));
                la::Vector one = rhs[0], three(3 * n);
                for (std::size_t i = 0; i < n; ++i)
                    for (std::size_t c = 0; c < 3; ++c)
                        three[i * 3 + c] = rhs[c][i];
                sparse.solveRows(one.data(), 1);
                sparse.solveRows(three.data(), 3);
                for (std::size_t c = 0; c < 3; ++c) {
                    const la::Vector want = oracle.solve(rhs[c]);
                    for (std::size_t i = 0; i < n; ++i) {
                        const double got =
                            c == 0 ? one[i] : three[i * 3 + c];
                        ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
                                  std::bit_cast<std::uint64_t>(want[i]))
                            << config << " ratio " << ratio
                            << (block == &a1 ? " level 0" : " limit")
                            << " rhs " << c << " phase " << i;
                        if (c == 0) {
                            ASSERT_EQ(std::bit_cast<std::uint64_t>(
                                          three[i * 3]),
                                      std::bit_cast<std::uint64_t>(got));
                        }
                    }
                }
            }
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
                for (const double load : {0.3, 0.8, 0.95}) {
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

/** The stationary answer of a chain truncated at a fixed depth. */
struct TruncatedAnswer
{
    double meanLevel = 0.0;
    la::Vector levelZero;
    la::Vector phaseMarginal;
};

/**
 * The oracle: @p model truncated at level @p depth, reflecting at the
 * top (A0 there stays within the level), assembled as one dense
 * generator and solved by LU.  It shares nothing with solveStationary
 * but the model's levelBlocks().  Dense, so keep it to a few thousand
 * states.
 */
TruncatedAnswer
bruteForce(const LdQbdModel &model, std::size_t depth)
{
    const std::size_t n = model.phases();
    la::Matrix q(n * (depth + 1), n * (depth + 1), 0.0);
    for (std::size_t l = 0; l <= depth; ++l) {
        la::Triplets a0, a1, a2;
        model.levelBlocks(l, a0, a1, a2);
        const std::size_t base = l * n;
        const std::size_t up = l == depth ? base : base + n;
        for (const auto &e : a1)
            q(base + e.row, base + e.col) += e.value;
        for (const auto &e : a0)
            q(base + e.row, up + e.col) += e.value;
        for (const auto &e : a2)
            q(base + e.row, base - n + e.col) += e.value;
    }
    const la::Vector pi = la::stationaryFromGenerator(std::move(q));
    TruncatedAnswer ans;
    ans.levelZero.assign(pi.begin(), pi.begin() + n);
    ans.phaseMarginal.assign(n, 0.0);
    for (std::size_t l = 0; l <= depth; ++l)
        for (std::size_t p = 0; p < n; ++p) {
            ans.meanLevel += static_cast<double>(l) * pi[l * n + p];
            ans.phaseMarginal[p] += pi[l * n + p];
        }
    return ans;
}

/** solveStationary pinned to one truncation depth. */
LdQbdResult
solveAtDepth(const LdQbdModel &model, std::size_t depth)
{
    LdQbdOptions opts;
    opts.initialLevels = depth;
    opts.maxLevels = depth;
    const LdQbdResult res = solveStationary(model, opts);
    EXPECT_EQ(res.levelsUsed, depth);
    EXPECT_EQ(res.depthSolves, 1u);
    return res;
}

/** The Krylov answer at @p depth against the dense oracle's. */
void
expectAgreement(const LdQbdModel &model, std::size_t depth, double load)
{
    const LdQbdResult krylov = solveAtDepth(model, depth);
    const TruncatedAnswer dense = bruteForce(model, depth);
    ASSERT_TRUE(krylov.stable) << "load " << load;
    EXPECT_LT(relDiff(krylov.meanLevel, dense.meanLevel), 1e-8)
        << "load " << load << " depth " << depth;
    for (std::size_t p = 0; p < model.phases(); ++p) {
        EXPECT_NEAR(krylov.phaseMarginal[p], dense.phaseMarginal[p],
                    1e-9)
            << "load " << load << " depth " << depth << " phase " << p;
        EXPECT_NEAR(krylov.levelZero[p], dense.levelZero[p], 1e-9)
            << "load " << load << " depth " << depth << " phase " << p;
    }
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
        for (const std::size_t depth : {16u, 32u})
            expectAgreement(model, depth, load);
    }
}

TEST(SolveStationaryTest, InstabilityDetectedEitherSideOfCapacity)
{
    NetChainParams prm;
    prm.processors = 4;
    prm.buses = 2;
    prm.resources = 1;
    prm.lambda = 10.0; // far beyond capacity
    prm.muS = 0.1;
    const XbarChainModel model(prm);
    EXPECT_FALSE(solveStationary(model).stable);
    const SbusSolution sol = solveXbarChain(prm);
    EXPECT_FALSE(sol.stable);
    EXPECT_TRUE(std::isinf(sol.normalizedDelay));

    // Close to capacity on both sides, the verdict must be right.
    // Each of the two buses above cycles through one transmission
    // (mean 1/muN) and one service (1/muS) per task, so the four
    // processors saturate at lambda = 2 / 11 / 4.
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
        EXPECT_EQ(solveStationary(*point.model, opts).stable,
                  point.stable)
            << point.label;
    }
}

/**
 * Close below capacity the level masses decay slowly, and block Jacobi
 * alone cannot move mass between levels: on the 4/2 crossbar above it
 * leaves GMRES stalled at depth 512.  The coarse level correction must
 * make the Krylov path converge, by default and at depth 512, where it
 * must reproduce the dense solve of the same truncated chain.
 */
TEST(SolveStationaryTest, KrylovConvergesCloseBelowCapacity)
{
    NetChainParams prm;
    prm.processors = 4;
    prm.buses = 2;
    prm.resources = 1;
    prm.muS = 0.1;
    for (const double load : {0.95, 0.97}) {
        prm.lambda = load * (2.0 / 11.0) / 4.0;
        const XbarChainModel model(prm);
        const LdQbdResult krylov = solveStationary(model);
        ASSERT_TRUE(krylov.stable) << "load " << load;
        EXPECT_TRUE(krylov.converged) << "load " << load;
        expectAgreement(model, 512, load);
    }
}

/**
 * The certificate property: the reported truncation bound dominates
 * the observed truncation error, measured against a much tighter
 * reference solve, across a parameter sweep.
 */
TEST(SolveStationaryTest, TruncationBoundCoversObservedError)
{
    std::size_t cells = 0;
    for (const std::size_t k : {1u, 2u, 4u})
        for (const std::size_t r : {1u, 2u})
            for (const double ratio : {0.1, 1.0, 10.0})
                for (const double load : {0.3, 0.5, 0.85}) {
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
                    LdQbdOptions fine;
                    fine.relTolerance = 1e-11;
                    const LdQbdResult ref =
                        solveStationary(model, fine);
                    if (!ref.stable)
                        continue;
                    const LdQbdResult res =
                        solveStationary(model, coarse);
                    ASSERT_TRUE(res.stable);
                    const double observed =
                        relDiff(res.meanLevel, ref.meanLevel);
                    EXPECT_LE(observed, res.truncationBound)
                        << "k=" << k << " r=" << r << " ratio=" << ratio
                        << " load=" << load;
                    ++cells;
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
 * Bit patterns of the paper cells: they pin the two-level cycle (two
 * smoother factors, the Galerkin level-aggregate coarse correction)
 * and the assembly that feeds it, on the 495-phase and the 70-phase
 * chains.  Any change to the solver's arithmetic shows here first.
 */
TEST(SolveStationaryTest, GoldenBitsOfThePaperCells)
{
    struct Golden
    {
        const char *config;
        double rho;
        std::uint64_t meanLevel;
        std::uint64_t truncationBound;
        std::size_t levelsUsed;
    };
    const Golden cells[] = {
        {"16/2x8x8 XBAR/2", 0.3, 0x3f95680ef75db412, 0x3e8bc2dabe35caf0,
         16},
        {"16/2x8x8 XBAR/2", 0.5, 0x3fb028918b2471ce, 0x3ed394c345a93f04,
         32},
        {"16/2x8x8 OMEGA/2", 0.3, 0x3f95727f030d4997, 0x3e8e7c9926cf97f2,
         16},
        {"16/2x8x8 OMEGA/2", 0.5, 0x3fb0a26e6a4c3b78, 0x3ed53a66d7342347,
         32},
        {"16/4x4x4 XBAR/2", 0.5, 0x3fafbc0646135639, 0x3f04f702f6b30773,
         32},
    };
    for (const Golden &cell : cells) {
        const auto model = paperChain(cell.config, 0.1, cell.rho);
        const LdQbdResult res = solveStationary(*model);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(res.meanLevel),
                  cell.meanLevel)
            << cell.config << " rho " << cell.rho << std::hex << " got 0x"
            << std::bit_cast<std::uint64_t>(res.meanLevel);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(res.truncationBound),
                  cell.truncationBound)
            << cell.config << " rho " << cell.rho << std::hex << " got 0x"
            << std::bit_cast<std::uint64_t>(res.truncationBound);
        EXPECT_EQ(res.levelsUsed, cell.levelsUsed)
            << cell.config << " rho " << cell.rho;
    }
}

TEST(SolveStationaryTest, WorkCountersAreDeterministic)
{
    // A default 495-phase solve that doubles 8 -> 16 -> 32 factors the
    // smoother's two blocks once: level 0 and the limiting A1 that
    // every deeper level shares.
    const auto model = paperChain("16/2x8x8 XBAR/2", 0.1, 0.5);
    const LdQbdResult res = solveStationary(*model);
    ASSERT_EQ(res.levelsUsed, 32u);
    EXPECT_EQ(res.factorizations, 2u);
    EXPECT_EQ(res.depthSolves, 3u);
    EXPECT_EQ(res.gmresIterations, 35u);
    const LdQbdResult again = solveStationary(*model);
    EXPECT_EQ(again.factorizations, res.factorizations);
    EXPECT_EQ(again.gmresIterations, res.gmresIterations);
    EXPECT_EQ(again.depthSolves, res.depthSolves);

    // Two factorizations at any depth, shallow ones included.
    LdQbdOptions shallow;
    shallow.initialLevels = 4;
    shallow.maxLevels = 8;
    const LdQbdResult short_run = solveStationary(*model, shallow);
    EXPECT_EQ(short_run.depthSolves, 2u);
    EXPECT_EQ(short_run.factorizations, 2u);

    // The 70-phase chain runs the same loop.
    const auto small_model = paperChain("16/4x4x4 XBAR/2", 0.1, 0.5);
    const LdQbdResult small = solveStationary(*small_model);
    ASSERT_EQ(small.levelsUsed, 32u);
    EXPECT_EQ(small.factorizations, 2u);
    EXPECT_EQ(small.depthSolves, 3u);
    EXPECT_EQ(small.gmresIterations, 28u);
}

} // namespace
} // namespace markov
} // namespace rsin
