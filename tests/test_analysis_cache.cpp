/**
 * @file
 * AnalysisCache contract tests: exact keying, bit-identical cached
 * results, single-flight accounting, FIFO eviction, and bit-identity
 * of a concurrent SweepRunner grid against the uncached serial loop.
 */

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/fsio.hpp"
#include "common/text.hpp"
#include "exec/sweep_runner.hpp"
#include "exec/thread_pool.hpp"
#include "markov/sbus_solvers.hpp"
#include "rsin/analysis_cache.hpp"

namespace {

using namespace rsin;

markov::SbusParams
paramsAt(std::size_t p, std::size_t r, double ratio, double lambda)
{
    markov::SbusParams prm;
    prm.p = p;
    prm.r = r;
    prm.muN = 1.0;
    prm.muS = ratio;
    prm.lambda = lambda;
    return prm;
}

/** Bit-for-bit equality of every field of two solutions. */
void
expectBitIdentical(const markov::SbusSolution &a,
                   const markov::SbusSolution &b)
{
    const auto bits = [](double v) {
        std::uint64_t u;
        std::memcpy(&u, &v, sizeof u);
        return u;
    };
    EXPECT_EQ(a.stable, b.stable);
    EXPECT_EQ(bits(a.meanQueueLength), bits(b.meanQueueLength));
    EXPECT_EQ(bits(a.queueingDelay), bits(b.queueingDelay));
    EXPECT_EQ(bits(a.normalizedDelay), bits(b.normalizedDelay));
    EXPECT_EQ(bits(a.busUtilization), bits(b.busUtilization));
    EXPECT_EQ(bits(a.resourceUtilization), bits(b.resourceUtilization));
    EXPECT_EQ(bits(a.probEmptySystem), bits(b.probEmptySystem));
    EXPECT_EQ(bits(a.probNoWait), bits(b.probNoWait));
    EXPECT_EQ(a.levelsUsed, b.levelsUsed);
    EXPECT_EQ(bits(a.truncationBound), bits(b.truncationBound));
}

TEST(AnalysisCacheTest, HitIsBitIdenticalToFreshSolve)
{
    AnalysisCache cache;
    const auto prm = paramsAt(4, 2, 0.1, 0.08);
    const auto fresh =
        markov::solveMatrixGeometric(markov::SbusChain(prm));
    const auto first =
        cache.solve(prm, SbusSolverKind::MatrixGeometric);
    const auto second =
        cache.solve(prm, SbusSolverKind::MatrixGeometric);
    expectBitIdentical(first, fresh);
    expectBitIdentical(second, fresh);
    const auto stats = cache.stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.entries, 1u);
}

TEST(AnalysisCacheTest, DistinctSolversAndParamsGetDistinctEntries)
{
    AnalysisCache cache;
    const auto prm = paramsAt(4, 2, 0.1, 0.08);
    auto nudged = prm;
    nudged.lambda = std::nextafter(prm.lambda, 1.0);
    cache.solve(prm, SbusSolverKind::MatrixGeometric);
    cache.solve(prm, SbusSolverKind::Staged);
    cache.solve(prm, SbusSolverKind::Direct);
    cache.solve(nudged, SbusSolverKind::MatrixGeometric);
    const auto stats = cache.stats();
    EXPECT_EQ(stats.misses, 4u);
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.entries, 4u);
}

TEST(AnalysisCacheTest, StagedOptionsParticipateInTheKey)
{
    AnalysisCache cache;
    const auto prm = paramsAt(4, 2, 1.0, 0.06);
    markov::SbusSolveOptions coarse;
    coarse.maxLevels = 8;
    cache.solve(prm, SbusSolverKind::Staged);
    cache.solve(prm, SbusSolverKind::Staged, coarse);
    EXPECT_EQ(cache.stats().misses, 2u);
    // The matrix-geometric solver ignores options, so they must not
    // split its key.
    cache.solve(prm, SbusSolverKind::MatrixGeometric);
    cache.solve(prm, SbusSolverKind::MatrixGeometric, coarse);
    EXPECT_EQ(cache.stats().misses, 3u);
    EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(AnalysisCacheTest, FifoEvictionRecomputesButNeverChangesResults)
{
    AnalysisCache cache(2);
    std::vector<markov::SbusParams> prms;
    for (int i = 0; i < 3; ++i)
        prms.push_back(paramsAt(4, 2, 0.1, 0.05 + 0.01 * i));
    std::vector<markov::SbusSolution> first;
    for (const auto &prm : prms)
        first.push_back(cache.solve(prm, SbusSolverKind::MatrixGeometric));
    // Capacity 2: inserting the third entry evicted the first.
    EXPECT_EQ(cache.stats().entries, 2u);
    const auto again =
        cache.solve(prms[0], SbusSolverKind::MatrixGeometric);
    EXPECT_EQ(cache.stats().misses, 4u);
    expectBitIdentical(again, first[0]);
}

TEST(AnalysisCacheTest, ClearResetsEntriesAndCounters)
{
    AnalysisCache cache;
    const auto prm = paramsAt(4, 1, 0.1, 0.1);
    cache.solve(prm, SbusSolverKind::MatrixGeometric);
    cache.solve(prm, SbusSolverKind::MatrixGeometric);
    cache.clear();
    const auto stats = cache.stats();
    EXPECT_EQ(stats.hits, 0u);
    EXPECT_EQ(stats.misses, 0u);
    EXPECT_EQ(stats.entries, 0u);
    const auto sol = cache.solve(prm, SbusSolverKind::MatrixGeometric);
    expectBitIdentical(
        sol, markov::solveMatrixGeometric(markov::SbusChain(prm)));
}

/**
 * The ISSUE-level guarantee: a concurrent SweepRunner grid whose cells
 * all route through one shared cache produces solutions bit-identical
 * to an uncached serial loop, and deliberately duplicated columns
 * dedupe into hits or single-flight waits rather than extra solves.
 */
TEST(AnalysisCacheTest, ConcurrentSweepMatchesUncachedSerial)
{
    const std::size_t points = 6;
    const std::size_t replications = 4; // 4 duplicates of each column
    std::vector<markov::SbusParams> prms;
    for (std::size_t p = 0; p < points; ++p)
        prms.push_back(paramsAt(4, 2, 0.1, 0.02 + 0.012 * static_cast<double>(p)));

    std::vector<markov::SbusSolution> serial;
    for (const auto &prm : prms)
        serial.push_back(markov::solveStaged(markov::SbusChain(prm)));

    AnalysisCache cache;
    exec::ThreadPool pool(4);
    const exec::SweepRunner runner(&pool);
    std::vector<markov::SbusSolution> cells(points * replications);
    runner.run(1, points, replications, 0,
               [&](const exec::SweepCell &cell) {
                   cells[cell.flat] = cache.solve(
                       prms[cell.point], SbusSolverKind::Staged);
               });

    for (std::size_t p = 0; p < points; ++p)
        for (std::size_t r = 0; r < replications; ++r)
            expectBitIdentical(cells[p * replications + r], serial[p]);
    const auto stats = cache.stats();
    // Single-flight: exactly one solve per distinct chain.  Every
    // other cell of a column returns the completed entry (a hit),
    // possibly after blocking on the in-flight computation (a wait,
    // counted in addition to the eventual hit).
    EXPECT_EQ(stats.misses, points);
    EXPECT_EQ(stats.hits, points * (replications - 1));
    EXPECT_EQ(stats.entries, points);
}

TEST(AnalysisCachePersistTest, SaveLoadRoundTripsBitExact)
{
    const std::string path =
        ::testing::TempDir() + "rsin_analysis_cache_roundtrip.txt";
    std::remove(path.c_str());

    AnalysisCache source;
    std::vector<markov::SbusParams> prms;
    for (double lambda : {0.02, 0.05, 0.08})
        prms.push_back(paramsAt(4, 2, 0.1, lambda));
    std::vector<markov::SbusSolution> solved;
    for (const auto &prm : prms)
        solved.push_back(
            source.solve(prm, SbusSolverKind::MatrixGeometric));
    EXPECT_EQ(source.save(path), prms.size());

    AnalysisCache restored;
    EXPECT_EQ(restored.load(path), prms.size());
    EXPECT_EQ(restored.stats().entries, prms.size());
    for (std::size_t i = 0; i < prms.size(); ++i) {
        const auto sol =
            restored.solve(prms[i], SbusSolverKind::MatrixGeometric);
        expectBitIdentical(sol, solved[i]);
    }
    // Every solve above must have been served from the loaded file,
    // not recomputed.
    EXPECT_EQ(restored.stats().misses, 0u);
    EXPECT_EQ(restored.stats().hits, prms.size());
    std::remove(path.c_str());
}

TEST(AnalysisCacheTest, NetworkSolvesAreKeyedAndSingleEntry)
{
    AnalysisCache cache;
    markov::NetChainParams prm;
    prm.processors = 4;
    prm.buses = 2;
    prm.resources = 2;
    prm.lambda = 0.05;
    prm.muN = 1.0;
    prm.muS = 0.1;
    const auto first =
        cache.solveNetwork(prm, SbusSolverKind::XbarLdQbd);
    const auto second =
        cache.solveNetwork(prm, SbusSolverKind::XbarLdQbd);
    expectBitIdentical(first, second);
    EXPECT_GT(first.truncationBound, 0.0);
    EXPECT_EQ(cache.stats().misses, 1u);
    EXPECT_EQ(cache.stats().hits, 1u);
    // The same parameters under the Omega kind are a different chain
    // (the kind is in the key), so they must not collide.
    cache.solveNetwork(prm, SbusSolverKind::OmegaLdQbd);
    EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(AnalysisCachePersistTest, NetworkEntriesRoundTripWithBound)
{
    const std::string path =
        ::testing::TempDir() + "rsin_analysis_cache_network.txt";
    std::remove(path.c_str());

    AnalysisCache source;
    markov::NetChainParams prm;
    prm.processors = 4;
    prm.buses = 2;
    prm.resources = 1;
    prm.lambda = 0.04;
    prm.muN = 1.0;
    prm.muS = 0.1;
    const auto solved =
        source.solveNetwork(prm, SbusSolverKind::XbarLdQbd);
    ASSERT_GT(solved.truncationBound, 0.0);
    EXPECT_EQ(source.save(path), 1u);

    AnalysisCache restored;
    EXPECT_EQ(restored.load(path), 1u);
    const auto sol =
        restored.solveNetwork(prm, SbusSolverKind::XbarLdQbd);
    expectBitIdentical(sol, solved);
    EXPECT_EQ(restored.stats().misses, 0u);
    EXPECT_EQ(restored.stats().hits, 1u);
    std::remove(path.c_str());
}

TEST(AnalysisCachePersistTest, OlderBackendEntriesAreNotServed)
{
    // Key word 13 stamps the LD-QBD backend version.  An entry written
    // by an older backend still loads (its line is intact), but it is
    // a different key, so it never answers a solve the current
    // backend owns.
    const std::string path =
        ::testing::TempDir() + "rsin_analysis_cache_backend3.txt";
    std::remove(path.c_str());
    markov::NetChainParams prm;
    prm.processors = 4;
    prm.buses = 2;
    prm.resources = 1;
    prm.lambda = 0.04;
    prm.muN = 1.0;
    prm.muS = 0.1;
    AnalysisCache source;
    source.solveNetwork(prm, SbusSolverKind::XbarLdQbd);
    ASSERT_EQ(source.save(path), 1u);

    // Re-stamp the entry as backend version 3, with a valid crc.
    std::string header, line;
    {
        std::ifstream is(path);
        std::getline(is, header);
        std::getline(is, line);
    }
    std::vector<std::string> words = split(line, ' ');
    ASSERT_EQ(words.size(), 25u); // 24 words + crc
    words[13] = formatf("%016llx", 3ULL);
    std::string body;
    for (std::size_t i = 0; i < 24; ++i) {
        if (i > 0)
            body += ' ';
        body += words[i];
    }
    {
        std::ofstream os(path, std::ios::trunc);
        os << header << "\n"
           << body << formatf(" %08x", common::crc32(body)) << "\n";
    }

    AnalysisCache restored;
    EXPECT_EQ(restored.load(path), 1u);
    restored.solveNetwork(prm, SbusSolverKind::XbarLdQbd);
    EXPECT_EQ(restored.stats().hits, 0u);
    EXPECT_EQ(restored.stats().misses, 1u);
    std::remove(path.c_str());
}

TEST(AnalysisCachePersistTest, PreLdQbdV1FilesAreDiscarded)
{
    // A v1-era file predates the LD-QBD backends and the 24-word entry
    // schema; migration policy is to discard it wholesale rather than
    // guess at its solver provenance.
    const std::string path =
        ::testing::TempDir() + "rsin_analysis_cache_v1.txt";
    {
        std::ofstream os(path, std::ios::trunc);
        os << "rsin.analysis_cache.v1\n";
        // A plausible v1 line (22 words + crc); must not be imported.
        std::string body;
        for (int i = 0; i < 22; ++i)
            body += "0000000000000001 ";
        body.pop_back();
        os << body << " deadbeef\n";
    }
    AnalysisCache cache;
    EXPECT_EQ(cache.load(path), 0u);
    EXPECT_EQ(cache.stats().entries, 0u);
    std::remove(path.c_str());
}

TEST(AnalysisCachePersistTest, LoadToleratesCorruptionAndAbsence)
{
    const std::string path =
        ::testing::TempDir() + "rsin_analysis_cache_torn.txt";
    std::remove(path.c_str());

    AnalysisCache empty;
    EXPECT_EQ(empty.load(path), 0u); // missing file: nothing, no throw

    AnalysisCache source;
    source.solve(paramsAt(4, 2, 0.1, 0.02),
                 SbusSolverKind::MatrixGeometric);
    source.solve(paramsAt(4, 2, 0.1, 0.05),
                 SbusSolverKind::MatrixGeometric);
    EXPECT_EQ(source.save(path), 2u);

    // Tear the file the way a crashed writer would: drop the tail of
    // the final line.  The intact first entry must still load.
    {
        std::ifstream is(path);
        std::string content((std::istreambuf_iterator<char>(is)),
                            std::istreambuf_iterator<char>());
        content.resize(content.size() - 20);
        std::ofstream os(path, std::ios::trunc);
        os << content;
    }
    AnalysisCache restored;
    EXPECT_EQ(restored.load(path), 1u);

    // A foreign header loads nothing at all.
    {
        std::ofstream os(path, std::ios::trunc);
        os << "not-a-cache-file\ndeadbeef\n";
    }
    AnalysisCache foreign;
    EXPECT_EQ(foreign.load(path), 0u);
    std::remove(path.c_str());
}

} // namespace
