/**
 * @file
 * Unit tests for the common substrate: errors, RNG, statistics, text.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include <fstream>
#include <stdexcept>
#include <string>

#include <unistd.h>

#include "common/args.hpp"
#include "common/error.hpp"
#include "common/fsio.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/text.hpp"

namespace rsin {
namespace {

TEST(ErrorTest, FatalThrowsFatalError)
{
    EXPECT_THROW(RSIN_FATAL("bad input ", 42), FatalError);
}

TEST(ErrorTest, RequirePassesOnTrue)
{
    EXPECT_NO_THROW(RSIN_REQUIRE(1 + 1 == 2, "math works"));
}

TEST(ErrorTest, RequireThrowsWithMessage)
{
    try {
        RSIN_REQUIRE(false, "value was ", 7);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("value was 7"),
                  std::string::npos);
    }
}

TEST(ErrorTest, PanicThrowsInTestMode)
{
    ScopedPanicThrows guard;
    EXPECT_THROW(RSIN_PANIC("invariant broken"), PanicError);
}

TEST(RngTest, DeterministicForSeed)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        equal += (a.next() == b.next()) ? 1 : 0;
    EXPECT_LT(equal, 5);
}

TEST(RngTest, Uniform01InRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform01();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(RngTest, UniformIntBounds)
{
    Rng rng(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.uniformInt(std::uint64_t{7});
        EXPECT_LT(v, 7u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u); // all values hit
}

TEST(RngTest, ExponentialMeanMatchesRate)
{
    Rng rng(11);
    const double rate = 2.5;
    Accumulator acc;
    for (int i = 0; i < 200000; ++i)
        acc.add(rng.exponential(rate));
    EXPECT_NEAR(acc.mean(), 1.0 / rate, 0.01);
}

TEST(RngTest, ExponentialRejectsBadRate)
{
    Rng rng(1);
    EXPECT_THROW(rng.exponential(0.0), FatalError);
    EXPECT_THROW(rng.exponential(-1.0), FatalError);
}

TEST(RngTest, PoissonMeanAndVariance)
{
    Rng rng(13);
    const double mean = 4.2;
    Accumulator acc;
    for (int i = 0; i < 100000; ++i)
        acc.add(static_cast<double>(rng.poisson(mean)));
    EXPECT_NEAR(acc.mean(), mean, 0.05);
    EXPECT_NEAR(acc.variance(), mean, 0.1); // Poisson: var == mean
}

TEST(RngTest, PoissonLargeMeanUsesNormalApprox)
{
    Rng rng(17);
    Accumulator acc;
    for (int i = 0; i < 50000; ++i)
        acc.add(static_cast<double>(rng.poisson(100.0)));
    EXPECT_NEAR(acc.mean(), 100.0, 0.5);
}

TEST(RngTest, NormalMoments)
{
    Rng rng(19);
    Accumulator acc;
    for (int i = 0; i < 200000; ++i)
        acc.add(rng.normal(3.0, 2.0));
    EXPECT_NEAR(acc.mean(), 3.0, 0.05);
    EXPECT_NEAR(acc.stddev(), 2.0, 0.05);
}

TEST(RngTest, ErlangMeanAndCv)
{
    Rng rng(23);
    Accumulator acc;
    for (int i = 0; i < 100000; ++i)
        acc.add(rng.erlang(2, 2.0)); // mean = 2/2 = 1, CV^2 = 1/2
    EXPECT_NEAR(acc.mean(), 1.0, 0.02);
    EXPECT_NEAR(acc.variance(), 0.5, 0.02);
}

TEST(RngTest, SampleWithoutReplacementDistinct)
{
    Rng rng(29);
    for (int trial = 0; trial < 100; ++trial) {
        auto sample = rng.sampleWithoutReplacement(20, 8);
        EXPECT_EQ(sample.size(), 8u);
        std::set<std::size_t> dedup(sample.begin(), sample.end());
        EXPECT_EQ(dedup.size(), 8u);
        for (auto v : sample)
            EXPECT_LT(v, 20u);
    }
}

TEST(RngTest, ShuffleIsAPermutation)
{
    Rng rng(47);
    std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
    std::vector<int> original = v;
    bool ever_moved = false;
    for (int trial = 0; trial < 50; ++trial) {
        rng.shuffle(v);
        std::vector<int> sorted = v;
        std::sort(sorted.begin(), sorted.end());
        EXPECT_EQ(sorted, original);
        if (v != original)
            ever_moved = true;
    }
    EXPECT_TRUE(ever_moved);
}

TEST(RngTest, HyperExponentialMean)
{
    Rng rng(53);
    Accumulator acc;
    // 30% at rate 2, 70% at rate 0.5: mean = 0.3/2 + 0.7/0.5 = 1.55.
    for (int i = 0; i < 200000; ++i)
        acc.add(rng.hyperExponential(0.3, 2.0, 0.5));
    EXPECT_NEAR(acc.mean(), 1.55, 0.02);
}

TEST(TimeWeightedTest, ClearResetsWindow)
{
    TimeWeighted tw;
    tw.record(0.0, 10.0);
    tw.finish(2.0);
    EXPECT_DOUBLE_EQ(tw.average(), 10.0);
    tw.clear();
    // An empty window has no average: NaN, never a fake 0.
    EXPECT_TRUE(std::isnan(tw.average()));
    EXPECT_DOUBLE_EQ(tw.elapsed(), 0.0);
    // A fresh window may start at an earlier absolute time.
    tw.record(0.5, 1.0);
    tw.finish(1.5);
    EXPECT_DOUBLE_EQ(tw.average(), 1.0);
}

TEST(RngTest, SplitProducesIndependentStream)
{
    Rng a(31);
    Rng child = a.split();
    // The child stream should not reproduce the parent stream.
    // rsin-lint: allow(R8): the test replays the parent stream on purpose to prove split() diverged from it
    Rng parent_copy = a;
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        equal += (child.next() == parent_copy.next()) ? 1 : 0;
    EXPECT_LT(equal, 5);
}

TEST(AccumulatorTest, BasicMoments)
{
    Accumulator acc;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        acc.add(v);
    EXPECT_EQ(acc.count(), 8u);
    EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
    EXPECT_NEAR(acc.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(acc.min(), 2.0);
    EXPECT_DOUBLE_EQ(acc.max(), 9.0);
}

TEST(AccumulatorTest, MergeMatchesCombined)
{
    Rng rng(37);
    Accumulator a, b, all;
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.normal();
        (i % 2 ? a : b).add(v);
        all.add(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(AccumulatorTest, MergeMatchesSinglePassOnRandomSplits)
{
    // Property: however a sample is partitioned -- including empty
    // parts -- merging the partial accumulators must reproduce the
    // single-pass moments and extrema.
    for (std::uint64_t trial = 0; trial < 20; ++trial) {
        Rng rng(1000 + trial);
        const std::size_t parts = 1 + trial % 7;
        std::vector<Accumulator> split(parts);
        Accumulator all;
        const std::size_t samples = trial * 37 % 400;
        for (std::size_t i = 0; i < samples; ++i) {
            const double v = rng.normal() * 100.0 + rng.uniform01();
            split[rng.uniformInt(std::uint64_t{parts})].add(v);
            all.add(v);
        }
        Accumulator merged;
        for (const auto &part : split)
            merged.merge(part);
        EXPECT_EQ(merged.count(), all.count());
        EXPECT_NEAR(merged.mean(), all.mean(), 1e-9);
        EXPECT_NEAR(merged.variance(), all.variance(), 1e-6);
        if (all.count() > 0) {
            EXPECT_DOUBLE_EQ(merged.min(), all.min());
            EXPECT_DOUBLE_EQ(merged.max(), all.max());
        }
    }
}

TEST(TimeWeightedTest, PiecewiseConstantAverage)
{
    TimeWeighted tw;
    tw.record(0.0, 1.0);
    tw.record(2.0, 3.0); // value 1 for 2 time units
    tw.record(3.0, 0.0); // value 3 for 1 time unit
    tw.finish(5.0);      // value 0 for 2 time units
    EXPECT_DOUBLE_EQ(tw.average(), (1.0 * 2 + 3.0 * 1 + 0.0 * 2) / 5.0);
    EXPECT_DOUBLE_EQ(tw.max(), 3.0);
}

TEST(TimeWeightedTest, RejectsTimeTravel)
{
    TimeWeighted tw;
    tw.record(1.0, 5.0);
    EXPECT_THROW(tw.record(0.5, 2.0), FatalError);
}

TEST(BatchMeansTest, CiShrinksWithData)
{
    Rng rng(41);
    BatchMeans bm(100);
    for (int i = 0; i < 1000; ++i)
        bm.add(rng.normal(10.0, 1.0));
    const double early = bm.halfWidth();
    for (int i = 0; i < 100000; ++i)
        bm.add(rng.normal(10.0, 1.0));
    EXPECT_LT(bm.halfWidth(), early);
    EXPECT_NEAR(bm.mean(), 10.0, 0.05);
}

TEST(StudentTTest, KnownValues)
{
    EXPECT_NEAR(studentTCritical(1, 0.95), 12.706, 1e-3);
    EXPECT_NEAR(studentTCritical(10, 0.95), 2.228, 1e-3);
    EXPECT_NEAR(studentTCritical(1000, 0.95), 1.960, 1e-3);
    EXPECT_NEAR(studentTCritical(5, 0.99), 4.032, 1e-3);
}

TEST(TextTest, TrimSplitParse)
{
    EXPECT_EQ(trim("  hello \t"), "hello");
    EXPECT_EQ(trim(""), "");
    const auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[2], "");
    EXPECT_TRUE(iequals("OmEgA", "omega"));
    EXPECT_FALSE(iequals("omega", "omegas"));
    EXPECT_EQ(parseLong(" 42 ").value(), 42);
    EXPECT_FALSE(parseLong("4x2").has_value());
    EXPECT_FALSE(parseLong("99999999999999999999").has_value());
    EXPECT_DOUBLE_EQ(parseDouble("2.5").value(), 2.5);
    EXPECT_FALSE(parseDouble("abc").has_value());
    // Non-finite values are malformed numbers here.
    EXPECT_FALSE(parseDouble("nan").has_value());
    EXPECT_FALSE(parseDouble("inf").has_value());
    EXPECT_FALSE(parseDouble("-inf").has_value());
    EXPECT_FALSE(parseDouble("1e999").has_value());
    EXPECT_DOUBLE_EQ(parseDouble("1e308").value(), 1e308);
    EXPECT_EQ(parseDouble("4.9e-324").value(), 4.9e-324); // denormal
    EXPECT_EQ(formatf("%d-%s", 3, "x"), "3-x");
}

TEST(ArgParserTest, FlagsOptionsPositionals)
{
    const char *argv[] = {"prog",      "input.txt", "--verbose",
                          "--rho",     "0.5",       "--steps=12",
                          "other.txt"};
    const ArgParser args(7, argv, {"verbose", "quiet"},
                         {"rho", "steps", "name"});
    EXPECT_TRUE(args.flag("verbose"));
    EXPECT_FALSE(args.flag("quiet"));
    EXPECT_DOUBLE_EQ(args.getDouble("rho", 0.0), 0.5);
    EXPECT_EQ(args.getLong("steps", 0), 12);
    EXPECT_EQ(args.get("name", "default"), "default");
    ASSERT_EQ(args.positional().size(), 2u);
    EXPECT_EQ(args.positional()[0], "input.txt");
    EXPECT_EQ(args.positional()[1], "other.txt");
    EXPECT_EQ(args.program(), "prog");
}

TEST(ArgParserTest, Rejections)
{
    {
        const char *argv[] = {"prog", "--unknown"};
        EXPECT_THROW(ArgParser(2, argv, {}, {}), FatalError);
    }
    {
        const char *argv[] = {"prog", "--rho"};
        EXPECT_THROW(ArgParser(2, argv, {}, {"rho"}), FatalError);
    }
    {
        const char *argv[] = {"prog", "--verbose=1"};
        EXPECT_THROW(ArgParser(2, argv, {"verbose"}, {}), FatalError);
    }
    {
        const char *argv[] = {"prog", "--rho", "abc"};
        const ArgParser args(3, argv, {}, {"rho"});
        EXPECT_THROW(args.getDouble("rho", 0.0), FatalError);
    }
}

TEST(ArgParserTest, CountsAreAtLeastOne)
{
    // A cast of getLong would wrap "-1" to 2^64 - 1 tasks.
    for (const char *bad : {"-1", "0", "abc"}) {
        const char *argv[] = {"prog", "--tasks", bad};
        const ArgParser args(3, argv, {}, {"tasks"});
        EXPECT_THROW(args.getCount("tasks", 20000), FatalError) << bad;
    }
    const char *argv[] = {"prog", "--tasks", "5"};
    const ArgParser args(3, argv, {}, {"tasks", "steps"});
    EXPECT_EQ(args.getCount("tasks", 20000), 5u);
    EXPECT_EQ(args.getCount("steps", 9), 9u);
}

TEST(CsvQuoteTest, QuotesOnlyWhenRfc4180Requires)
{
    EXPECT_EQ(csvQuote("plain"), "plain");
    EXPECT_EQ(csvQuote(""), "");
    EXPECT_EQ(csvQuote("a,b"), "\"a,b\"");
    EXPECT_EQ(csvQuote("say \"hi\""), "\"say \"\"hi\"\"\"");
    EXPECT_EQ(csvQuote("line\nbreak"), "\"line\nbreak\"");
    EXPECT_EQ(csvQuote("cr\rhere"), "\"cr\rhere\"");
}

TEST(CsvQuoteTest, SplitUndoesQuoteForEvilFields)
{
    // The exact field set a campaign matrix can smuggle into a curve
    // label: commas, embedded quotes, newlines, empties.
    const std::vector<std::string> fields{
        "plain", "", "a,b", "say \"hi\"", "multi\nline",
        "\"leading quote", "trailing,\"both\"\n"};
    std::string row;
    for (std::size_t i = 0; i < fields.size(); ++i) {
        if (i > 0)
            row += ',';
        row += csvQuote(fields[i]);
    }
    EXPECT_EQ(csvSplit(row), fields);
}

TEST(Crc32Test, MatchesTheIeeeCheckValue)
{
    // The standard check vector for reflected CRC-32/IEEE 802.3 --
    // pins the polynomial and bit order the ledger lines depend on.
    EXPECT_EQ(common::crc32("123456789"), 0xCBF43926u);
    EXPECT_EQ(common::crc32(""), 0x00000000u);
    EXPECT_NE(common::crc32("a"), common::crc32("b"));
}

TEST(FsioTest, WriteFileAtomicLeavesNoTemporary)
{
    const std::string path = ::testing::TempDir() + "rsin_fsio_ok.txt";
    common::removeFile(path);
    common::writeFileAtomic(path,
                            [](std::ostream &os) { os << "payload"; });
    EXPECT_EQ(common::readFile(path).value_or(""), "payload");
    // The pid-suffixed temporary must be gone after the rename.
    EXPECT_FALSE(common::fileExists(path + ".tmp." +
                                    std::to_string(::getpid())));
    common::removeFile(path);
}

TEST(FsioTest, ThrowingProducerPreservesPriorContent)
{
    // The crash-consistency contract behind every artifact emitter: a
    // failed rewrite must leave the previous artifact intact and no
    // half-written temporary behind.
    const std::string path =
        ::testing::TempDir() + "rsin_fsio_throw.txt";
    common::writeFileAtomic(path,
                            [](std::ostream &os) { os << "original"; });
    EXPECT_THROW(common::writeFileAtomic(
                     path,
                     [](std::ostream &os) {
                         os << "half-writ";
                         throw std::runtime_error("producer died");
                     }),
                 std::runtime_error);
    EXPECT_EQ(common::readFile(path).value_or(""), "original");
    EXPECT_FALSE(common::fileExists(path + ".tmp." +
                                    std::to_string(::getpid())));
    common::removeFile(path);
}

TEST(FsioTest, ListFilesFiltersBySuffixAndSorts)
{
    const std::string dir = ::testing::TempDir() + "rsin_fsio_list";
    common::ensureDir(dir);
    for (const char *name : {"seg-0000-0002.jsonl", "seg-0000-0000.jsonl",
                             "seg-0000-0001.open", "manifest.json"})
        common::writeFileAtomic(dir + "/" + name,
                                [](std::ostream &os) { os << "x"; });
    const auto sealed = common::listFiles(dir, ".jsonl");
    ASSERT_EQ(sealed.size(), 2u);
    EXPECT_EQ(sealed[0], "seg-0000-0000.jsonl");
    EXPECT_EQ(sealed[1], "seg-0000-0002.jsonl");
    EXPECT_EQ(common::listFiles(dir, ".open").size(), 1u);
    EXPECT_TRUE(common::listFiles(dir + "/missing", ".jsonl").empty());
}

TEST(TextTableTest, AlignedRendering)
{
    TextTable t("demo");
    t.header({"name", "value"});
    t.row({"alpha", "1"});
    t.rowLabeled("beta", {2.5}, 3);
    const std::string s = t.str();
    EXPECT_NE(s.find("demo"), std::string::npos);
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("2.5"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
}

} // namespace
} // namespace rsin
