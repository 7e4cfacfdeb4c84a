/**
 * @file
 * Unit tests for common utilities: PRNG, statistics, histogram, and
 * the command-line flag table.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/flags.hh"
#include "common/histogram.hh"
#include "common/stats_util.hh"
#include "common/xrandom.hh"

namespace nda {
namespace {

TEST(XRandom, DeterministicForSeed)
{
    XRandom a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(XRandom, DifferentSeedsDiffer)
{
    XRandom a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 2);
}

TEST(XRandom, BelowStaysInRange)
{
    XRandom rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(17), 17u);
}

TEST(XRandom, RangeInclusive)
{
    XRandom rng(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.range(3, 5);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 5u);
        saw_lo |= v == 3;
        saw_hi |= v == 5;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(XRandom, ChanceApproximatesProbability)
{
    XRandom rng(11);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += rng.chance(1, 4);
    EXPECT_NEAR(hits, 2500, 200);
}

TEST(XRandom, UniformInUnitInterval)
{
    XRandom rng(13);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(XRandom, ReseedRestartsSequence)
{
    XRandom rng(5);
    const auto first = rng.next();
    rng.next();
    rng.reseed(5);
    EXPECT_EQ(rng.next(), first);
}

TEST(StatsUtil, MeanOfKnownSample)
{
    EXPECT_DOUBLE_EQ(sampleMean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_DOUBLE_EQ(sampleMean({}), 0.0);
}

TEST(StatsUtil, StddevOfKnownSample)
{
    // Sample {2, 4, 4, 4, 5, 5, 7, 9}: sample stddev ~= 2.138.
    const std::vector<double> xs{2, 4, 4, 4, 5, 5, 7, 9};
    EXPECT_NEAR(sampleStddev(xs), 2.138, 0.001);
    EXPECT_DOUBLE_EQ(sampleStddev({5.0}), 0.0);
}

TEST(StatsUtil, ConfidenceIntervalUsesStudentT)
{
    // n=2, values {1, 3}: mean 2, s = sqrt(2), CI = 12.706*s/sqrt(2).
    const double ci = confidenceHalfWidth95({1.0, 3.0});
    EXPECT_NEAR(ci, 12.706, 0.01);
    EXPECT_DOUBLE_EQ(confidenceHalfWidth95({1.0}), 0.0);
}

TEST(StatsUtil, ConfidenceShrinksWithSamples)
{
    std::vector<double> xs;
    double prev = 1e9;
    for (int n = 2; n <= 30; n += 7) {
        xs.clear();
        for (int i = 0; i < n; ++i)
            xs.push_back(i % 2 ? 1.0 : 3.0);
        const double ci = confidenceHalfWidth95(xs);
        EXPECT_LT(ci, prev);
        prev = ci;
    }
}

TEST(StatsUtil, GeomeanOfKnownSample)
{
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-9);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-9);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(RunningStat, TracksMinMaxMean)
{
    RunningStat s;
    s.add(3.0);
    s.add(1.0);
    s.add(5.0);
    EXPECT_EQ(s.count(), 3u);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 5.0);
    EXPECT_DOUBLE_EQ(s.mean(), 3.0);
    s.reset();
    EXPECT_EQ(s.count(), 0u);
}

TEST(Histogram, MeanAndCount)
{
    Histogram h(16);
    h.add(2);
    h.add(4);
    h.add(6);
    EXPECT_EQ(h.count(), 3u);
    EXPECT_DOUBLE_EQ(h.mean(), 4.0);
}

TEST(Histogram, PercentileOrdering)
{
    Histogram h(128);
    for (std::uint64_t v = 0; v < 100; ++v)
        h.add(v);
    EXPECT_NEAR(static_cast<double>(h.percentile(0.5)), 50.0, 2.0);
    EXPECT_NEAR(static_cast<double>(h.percentile(0.95)), 95.0, 2.0);
}

TEST(Histogram, OverflowBucket)
{
    Histogram h(4);
    h.add(1000);
    EXPECT_EQ(h.count(), 1u);
    EXPECT_EQ(h.buckets().back(), 1u);
}

TEST(Histogram, OverflowAccessorCountsOnlyBeyondCap)
{
    Histogram h(4);
    EXPECT_EQ(h.overflow(), 0u);
    h.add(3); // in range
    h.add(4); // at the cap: still a unit-width bucket
    EXPECT_EQ(h.overflow(), 0u);
    h.add(5);
    h.add(5000);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.overflow(), h.buckets().back());
    // Clamped tail: the overflow index is the reported percentile.
    EXPECT_EQ(h.percentile(0.99), h.buckets().size() - 1);
    h.reset();
    EXPECT_EQ(h.overflow(), 0u);
}

TEST(Histogram, SummaryReportsOverflow)
{
    Histogram h(4);
    h.add(1);
    h.add(77);
    EXPECT_NE(h.summary().find("ovf=1"), std::string::npos);
}

TEST(Histogram, ResetClears)
{
    Histogram h(4);
    h.add(1);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

// --------------------------------------------------------------------------
// FlagTable
// --------------------------------------------------------------------------

/** parse() over `args` as if they followed a program name. */
std::string
parseArgs(FlagTable &t, std::vector<const char *> args)
{
    args.insert(args.begin(), "prog");
    return t.parse(static_cast<int>(args.size()), args.data());
}

TEST(FlagTable, FillsEveryKindOfDestination)
{
    bool quick = false;
    std::uint64_t insts = 0;
    std::string csv;
    int mode = 0;
    std::string workload;
    FlagTable t("prog");
    t.flag("--quick", "switch", &quick);
    t.number("--insts", "N", "number", &insts);
    t.text("--csv", "F", "string", &csv);
    t.choice<int>("--mode", "a|b", "choice", {{"a", 1}, {"b", 2}}, &mode);
    t.text("workload", "NAME", "positional", &workload);
    EXPECT_EQ(parseArgs(t, {"--quick", "--insts=12", "--csv=out.csv",
                            "--mode=b", "stream"}),
              "");
    EXPECT_TRUE(quick);
    EXPECT_EQ(insts, 12u);
    EXPECT_EQ(csv, "out.csv");
    EXPECT_EQ(mode, 2);
    EXPECT_EQ(workload, "stream");
    EXPECT_FALSE(t.helpRequested());
}

TEST(FlagTable, NumbersAreDigitsOnlyAndFitTheirType)
{
    for (const char *bad : {"-1", " 7", "7 ", "+3", "", "1x", "0x10",
                            "18446744073709551616"}) {
        std::uint64_t n = 5;
        FlagTable t("prog");
        t.number("--n", "N", "number", &n);
        const std::string arg = std::string("--n=") + bad;
        EXPECT_NE(parseArgs(t, {arg.c_str()}), "") << arg;
        EXPECT_EQ(n, 5u) << arg;
    }
    unsigned jobs = 0;
    std::uint64_t wide = 0;
    std::uint8_t byte = 0;
    FlagTable t("prog");
    t.number("--jobs", "N", "unsigned", &jobs);
    t.number("--wide", "N", "64-bit", &wide);
    t.number("--byte", "N", "8-bit", &byte);
    EXPECT_NE(parseArgs(t, {"--jobs=4294967296"}), "");
    EXPECT_NE(parseArgs(t, {"--byte=256"}), "");
    EXPECT_EQ(parseArgs(t, {"--jobs=4294967295",
                            "--wide=18446744073709551615", "--byte=255"}),
              "");
    EXPECT_EQ(jobs, 4294967295u);
    EXPECT_EQ(wide, 18446744073709551615ull);
    EXPECT_EQ(byte, 255u);
}

TEST(FlagTable, NumberRowEnforcesItsMinimum)
{
    unsigned smt = 0;
    FlagTable t("prog");
    t.number("--smt", "N", "threads", &smt, 1);
    EXPECT_NE(parseArgs(t, {"--smt=0"}), "");
    EXPECT_EQ(parseArgs(t, {"--smt=2"}), "");
    EXPECT_EQ(smt, 2u);
}

TEST(FlagTable, RejectsEmptyStringsAndMisplacedValues)
{
    bool quick = false;
    std::string csv = "keep";
    FlagTable t("prog");
    t.flag("--quick", "switch", &quick);
    t.text("--csv", "F", "string", &csv);
    EXPECT_NE(parseArgs(t, {"--csv="}), "");
    EXPECT_EQ(csv, "keep");
    EXPECT_NE(parseArgs(t, {"--csv"}), "");
    EXPECT_NE(parseArgs(t, {"--quick=1"}), "");
    EXPECT_FALSE(quick);
}

TEST(FlagTable, AliasesShareOneRow)
{
    std::uint64_t insts = 0;
    bool quiet = false;
    FlagTable t("prog");
    t.number("--insts,--measure", "N", "measured instructions", &insts);
    t.flag("-q,--quiet", "quiet", &quiet);
    EXPECT_EQ(parseArgs(t, {"--measure=7", "-q"}), "");
    EXPECT_EQ(insts, 7u);
    EXPECT_TRUE(quiet);
    EXPECT_EQ(parseArgs(t, {"--insts=9"}), "");
    EXPECT_EQ(insts, 9u);
}

TEST(FlagTable, UnknownChoiceListsTheAcceptedNames)
{
    int mode = 0;
    FlagTable t("prog");
    t.choice<int>("--mode", "a|b", "choice", {{"a", 1}, {"b", 2}}, &mode);
    const std::string err = parseArgs(t, {"--mode=c"});
    EXPECT_NE(err.find("'a', 'b'"), std::string::npos) << err;
    EXPECT_EQ(mode, 0);
}

TEST(FlagTable, RejectsUnknownFlagsAndSurplusArguments)
{
    std::string workload;
    FlagTable t("prog");
    t.text("workload", "NAME", "positional", &workload);
    EXPECT_NE(parseArgs(t, {"--bogus"}), "");
    EXPECT_NE(parseArgs(t, {"-x"}), "");
    FlagTable u("prog");
    u.text("workload", "NAME", "positional", &workload);
    EXPECT_NE(parseArgs(u, {"one", "two"}), "");
    FlagTable none("prog");
    EXPECT_NE(parseArgs(none, {"stray"}), "");
}

TEST(FlagTable, HelpStopsParsing)
{
    FlagTable t("prog");
    EXPECT_EQ(parseArgs(t, {"--help", "--bogus"}), "");
    EXPECT_TRUE(t.helpRequested());
    FlagTable u("prog");
    EXPECT_EQ(parseArgs(u, {"-h"}), "");
    EXPECT_TRUE(u.helpRequested());
}

TEST(FlagTable, UsageListsEveryRow)
{
    bool b = false;
    unsigned n = 0;
    std::string s;
    int c = 0;
    FlagTable t("prog", "What prog does.");
    t.flag("-q,--quiet", "be quiet", &b);
    t.number("--runs", "N", "how many runs", &n);
    t.text("--csv", "F", "where the CSV goes\nsecond help line", &s);
    t.choice<int>("--mode", "a|b", "pick a mode", {{"a", 1}, {"b", 2}},
                  &c);
    t.text("workload", "NAME", "kernel to run", &s);
    const std::string u = t.usage();
    for (const char *want :
         {"usage: prog [options] [workload]", "What prog does.",
          "-h, --help", "-q, --quiet", "be quiet", "--runs=N",
          "how many runs", "--csv=F", "where the CSV goes",
          "second help line", "--mode=a|b", "pick a mode", "workload",
          "kernel to run"})
        EXPECT_NE(u.find(want), std::string::npos) << want << "\n" << u;
}

} // namespace
} // namespace nda
