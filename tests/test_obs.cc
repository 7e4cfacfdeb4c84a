/**
 * @file
 * Tests of the observability layer: the stats registry and its JSON
 * dumper, histogram merge/JSON, phase timers, the run
 * manifest, the waterfall renderer, and the Chrome/Konata trace
 * exporters (against golden files). All JSON emitted by the layer is
 * validated with the strict nda::parseJson — malformed output that a
 * lenient consumer would shrug off fails here.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <vector>

#include "common/histogram.hh"
#include "core/perf_counters.hh"
#include "harness/grid_service.hh"
#include "obs/run_manifest.hh"
#include "obs/scoped_timer.hh"
#include "obs/stats_registry.hh"
#include "obs/stats_schema.hh"
#include "obs/trace_export.hh"

namespace nda {
namespace {

// ---------------------------------------------------------------------
// Every document the layer emits must parse under nda::parseJson,
// which follows the JSON grammar exactly (duplicate keys, leading
// zeros and raw control characters are errors).
// ---------------------------------------------------------------------

JsonValue
parseOrDie(const std::string &text)
{
    JsonValue v;
    std::string error;
    EXPECT_TRUE(parseJson(text, v, error))
        << error << "\ninput was:\n"
        << text.substr(0, 2000);
    return v;
}

/** Member `key` of object `v`; a missing member fails the test and
 *  reads as null. */
const JsonValue &
at(const JsonValue &v, const std::string &key)
{
    static const JsonValue missing;
    const JsonValue *m = v.find(key);
    EXPECT_NE(m, nullptr) << "missing key '" << key << "'";
    return m ? *m : missing;
}

/** at(at(v, key), rest...): a member path. */
template <class... Keys>
const JsonValue &
at(const JsonValue &v, const std::string &key, const Keys &...rest)
{
    return at(at(v, key), rest...);
}

bool
has(const JsonValue &v, const std::string &key)
{
    return v.find(key) != nullptr;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot open " << path;
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::string
goldenPath(const char *name)
{
    return std::string(NDASIM_GOLDEN_DIR) + "/" + name;
}

// Three hand-built records covering the interesting shapes: an
// NDA-deferred unsafe load, a dependent ALU op, and a squashed
// mispredicted branch. The exporters are pure functions of these, so
// the golden files below never move when simulator timing changes.
std::vector<InstTraceRecord>
syntheticRecords()
{
    InstTraceRecord a;
    a.seq = 1;
    a.pc = 0x40;
    a.disasm = "ld r1, [r2+0] (8)";
    a.fetched = 10;
    a.dispatched = 12;
    a.issued = 14;
    a.completed = 30;
    a.broadcasted = 38;
    a.retired = 40;
    a.wasUnsafe = true;
    a.unsafeMarkedAt = 12;
    a.unsafeClearedAt = 38;

    InstTraceRecord b;
    b.seq = 2;
    b.pc = 0x44;
    b.disasm = "addi r3, r1, 1";
    b.fetched = 11;
    b.dispatched = 13;
    b.issued = 39;
    b.completed = 40;
    b.broadcasted = 40;
    b.retired = 41;

    InstTraceRecord c;
    c.seq = 3;
    c.pc = 0x48;
    c.disasm = "bne r3, r4, +2";
    c.fetched = 11;
    c.dispatched = 13;
    c.issued = 15;
    c.completed = 16;
    c.broadcasted = 16;
    c.retired = 42;
    c.squashed = true;
    c.mispredicted = true;
    c.squashCause = SquashCause::kBranchMispredict;

    return {a, b, c};
}

// ---------------------------------------------------------------------
// The parser itself must be strict, or the tests above prove nothing.
// ---------------------------------------------------------------------

TEST(StrictJson, AcceptsValidDocuments)
{
    for (const char *doc :
         {"{}", "[]", "[1, 2.5, -3e2, \"x\", true, null]",
          R"({"a": {"b": [0.5]}, "c": "\n\t\" A"})"}) {
        JsonValue v;
        std::string error;
        EXPECT_TRUE(parseJson(doc, v, error)) << doc << ": " << error;
    }
}

TEST(StrictJson, RejectsMalformedDocuments)
{
    for (const char *doc :
         {"{", "{} extra", "[1,]", "{\"a\":1,\"a\":2}", "01",
          "{\"a\"}", "\"unterminated", "[1 2]", "nul", "1.",
          "\"bad\\q\"", "\"raw\nnewline\""}) {
        JsonValue v;
        std::string error;
        EXPECT_FALSE(parseJson(doc, v, error)) << "accepted: " << doc;
    }
}

// ---------------------------------------------------------------------
// StatsRegistry
// ---------------------------------------------------------------------

TEST(StatsRegistry, BindsAndDumpsAllThreeKinds)
{
    std::uint64_t hits = 7;
    Histogram lat(16);
    lat.add(3);
    lat.add(5);

    StatsRegistry reg;
    reg.addCounter("core.l1.hits", &hits, "lookups that hit");
    reg.addFormula(
        "core.l1.miss_rate", [] { return 0.25; }, "misses/lookups");
    reg.addHistogram("core.lat", &lat, "load latency");

    // Pointer binding: a later mutation is visible at dump time.
    hits = 9;
    const JsonValue v = parseOrDie(reg.dumpJson());
    EXPECT_EQ(at(v, "core", "l1", "hits").number, 9.0);
    EXPECT_EQ(at(v, "core", "l1", "miss_rate").number, 0.25);
    EXPECT_EQ(at(v, "core", "lat", "count").number, 2.0);
}

TEST(StatsRegistry, GroupViewNestsPrefixes)
{
    std::uint64_t n = 1;
    StatsRegistry reg;
    const StatsRegistry::Group g = reg.group("a").group("b");
    g.counter("n", &n, "nested");
    ASSERT_EQ(reg.names().size(), 1u);
    EXPECT_EQ(reg.names()[0], "a.b.n");
}

TEST(StatsRegistry, NamesAreSortedUnique)
{
    std::uint64_t x = 0;
    StatsRegistry reg;
    reg.addCounter("b.two", &x, "");
    reg.addCounter("a.one", &x, "");
    const auto names = reg.names();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "a.one");
    EXPECT_EQ(names[1], "b.two");
}

// ---------------------------------------------------------------------
// Histogram merge / JSON (stats-registry leaf format)
// ---------------------------------------------------------------------

TEST(Histogram, MergeFoldsCountsAndOverflow)
{
    Histogram a(8), b(8);
    a.add(1);
    a.add(2);
    b.add(2);
    b.add(100); // overflow of b
    a.merge(b);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_EQ(a.buckets()[2], 2u);
    EXPECT_EQ(a.buckets().back(), 1u);
}

TEST(Histogram, MergeRespectsNarrowerCap)
{
    Histogram narrow(4), wide(64);
    wide.add(10); // in range for wide, overflow for narrow
    narrow.merge(wide);
    EXPECT_EQ(narrow.count(), 1u);
    EXPECT_EQ(narrow.buckets().back(), 1u);
}

TEST(Histogram, ToJsonParsesWithPercentiles)
{
    Histogram h(32);
    for (int i = 0; i < 100; ++i)
        h.add(static_cast<std::uint64_t>(i % 10));
    const JsonValue v = parseOrDie(h.toJson());
    EXPECT_EQ(at(v, "count").number, 100.0);
    EXPECT_TRUE(has(v, "mean"));
    EXPECT_TRUE(has(v, "p50"));
    EXPECT_TRUE(has(v, "p95"));
    EXPECT_TRUE(has(v, "p99"));
    EXPECT_EQ(at(v, "overflow").number, 0.0);
    EXPECT_EQ(at(v, "buckets", "0").number, 10.0);
}

TEST(Histogram, ToJsonExposesOverflowCount)
{
    Histogram h(4);
    h.add(2);
    h.add(99);
    h.add(100);
    const JsonValue v = parseOrDie(h.toJson());
    EXPECT_EQ(at(v, "overflow").number, 2.0);
}

// ---------------------------------------------------------------------
// ScopedTimer / PhaseTimings
// ---------------------------------------------------------------------

TEST(ScopedTimer, RecordsAndAccumulatesPhases)
{
    PhaseTimings t;
    {
        ScopedTimer a(t, "alpha");
    }
    {
        ScopedTimer b(t, "beta");
        b.stop();
        b.stop(); // idempotent
    }
    {
        ScopedTimer a2(t, "alpha"); // accumulates into "alpha"
    }
    ASSERT_EQ(t.phases().size(), 2u);
    EXPECT_EQ(t.phases()[0].first, "alpha");
    EXPECT_EQ(t.phases()[1].first, "beta");
    EXPECT_GE(t.total(), 0.0);
}

TEST(ScopedTimer, StopFreezesTheRecordedValue)
{
    PhaseTimings t;
    ScopedTimer a(t, "phase");
    a.stop();
    ASSERT_EQ(t.phases().size(), 1u);
    const double first = t.phases()[0].second;
    // Further stops (and the destructor) must not accumulate more
    // time into the already-recorded phase.
    a.stop();
    EXPECT_EQ(t.phases().size(), 1u);
    EXPECT_DOUBLE_EQ(t.phases()[0].second, first);
}

TEST(PhaseTimings, TotalSumsPhasesInInsertionOrder)
{
    PhaseTimings t;
    t.record("fast_forward", 1.5);
    t.record("detailed", 2.25);
    t.record("fast_forward", 0.5); // accumulates, keeps position
    ASSERT_EQ(t.phases().size(), 2u);
    EXPECT_EQ(t.phases()[0].first, "fast_forward");
    EXPECT_DOUBLE_EQ(t.phases()[0].second, 2.0);
    EXPECT_DOUBLE_EQ(t.total(), 4.25);
}

TEST(ScopedTimer, ElapsedTimeIsNonNegativeAndOrdered)
{
    PhaseTimings t;
    {
        ScopedTimer outer(t, "outer");
        { ScopedTimer inner(t, "inner"); }
    }
    ASSERT_EQ(t.phases().size(), 2u);
    // "inner" was recorded first (destructor order), both >= 0, and
    // the enclosing scope can never be shorter than the nested one.
    EXPECT_EQ(t.phases()[0].first, "inner");
    EXPECT_GE(t.phases()[0].second, 0.0);
    EXPECT_GE(t.phases()[1].second, t.phases()[0].second);
}

// ---------------------------------------------------------------------
// RunManifest
// ---------------------------------------------------------------------

TEST(RunManifest, SetRawSplicesStructuredFields)
{
    RunManifest m("unit_test");
    m.set("scalar", std::uint64_t{7});
    m.setRaw("hotspots",
             "[{\"pc\": \"0x2a\", \"lost_slots\": 3}]");
    m.setRaw("scalar", "{\"replaced\": true}"); // last write wins

    const JsonValue v = parseOrDie(m.toJson());
    const JsonValue &fields = at(v, "fields");
    ASSERT_EQ(at(fields, "hotspots").kind, JsonValue::Kind::kArray);
    EXPECT_EQ(at(at(fields, "hotspots").array[0], "lost_slots").number,
              3.0);
    EXPECT_EQ(at(fields, "scalar", "replaced").boolean, true);
}

TEST(RunManifest, JsonParsesWithFieldsTimingsAndStats)
{
    std::uint64_t commits = 123;
    StatsRegistry reg;
    reg.addCounter("core.commits", &commits, "committed insts");

    PhaseTimings timings;
    { ScopedTimer t(timings, "grid"); }

    RunManifest m("unit_test");
    m.set("profile", "Strict");
    m.set("seed", std::uint64_t{42});
    m.set("cpi", 1.5);
    m.set("blocked", true);
    m.set("profile", "Strict+BR"); // last write wins, no dup key
    m.setTimings(&timings);
    m.setStats(&reg);

    const JsonValue v = parseOrDie(m.toJson());
    EXPECT_EQ(at(v, "tool").string, "ndasim");
    EXPECT_EQ(at(v, "bench").string, "unit_test");
    EXPECT_EQ(at(v, "manifest_version").number, 1.0);
    EXPECT_FALSE(at(v, "git").string.empty());
    EXPECT_EQ(at(v, "fields", "profile").string, "Strict+BR");
    EXPECT_EQ(at(v, "fields", "seed").number, 42.0);
    EXPECT_EQ(at(v, "fields", "cpi").number, 1.5);
    EXPECT_TRUE(at(v, "fields", "blocked").boolean);
    EXPECT_TRUE(has(at(v, "timings_sec"), "grid"));
    EXPECT_TRUE(has(at(v, "timings_sec"), "total"));
    EXPECT_EQ(at(v, "stats", "core", "commits").number, 123.0);
}

TEST(RunManifest, WriteFileRoundTrips)
{
    RunManifest m("roundtrip");
    m.set("x", std::uint64_t{1});
    const std::string path =
        ::testing::TempDir() + "/ndasim_manifest_test.json";
    ASSERT_TRUE(m.writeFile(path));
    // writeFile terminates the document with a newline.
    EXPECT_EQ(readFile(path), m.toJson() + "\n");
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Waterfall renderer (shared by PipeTrace::render and kText export)
// ---------------------------------------------------------------------

TEST(Waterfall, SelectsRequestedRows)
{
    const auto recs = syntheticRecords();
    const std::string all = renderWaterfall(recs, 0, recs.size(), 32);
    EXPECT_NE(all.find("ld r1"), std::string::npos);
    EXPECT_NE(all.find("addi r3"), std::string::npos);
    EXPECT_NE(all.find("bne r3"), std::string::npos);

    const std::string one = renderWaterfall(recs, 1, 1, 32);
    EXPECT_EQ(one.find("ld r1"), std::string::npos);
    EXPECT_NE(one.find("addi r3"), std::string::npos);
    EXPECT_EQ(one.find("bne r3"), std::string::npos);
}

TEST(Waterfall, CompressesTimeAxisToWidth)
{
    auto recs = syntheticRecords();
    recs[2].retired = 100000; // huge cycle range
    for (unsigned width : {8u, 24u, 64u}) {
        const std::string out =
            renderWaterfall(recs, 0, recs.size(), width);
        std::istringstream lines(out);
        std::string line;
        std::getline(lines, line); // header
        while (std::getline(lines, line)) {
            // seq(6) + space + disasm(26) + space + lane(width) +
            // optional flags.
            EXPECT_LE(line.size(), 6 + 1 + 26 + 1 + width + 12)
                << "width " << width << ": " << line;
            EXPECT_NE(line.find_first_of("fdicbrx="), std::string::npos);
        }
    }
}

TEST(Waterfall, MarksSquashUnsafeAndMispredict)
{
    const auto recs = syntheticRecords();
    std::istringstream lines(
        renderWaterfall(recs, 0, recs.size(), 48));
    std::string header, row_a, row_b, row_c;
    std::getline(lines, header);
    std::getline(lines, row_a);
    std::getline(lines, row_b);
    std::getline(lines, row_c);
    EXPECT_NE(header.find("x=squash"), std::string::npos);
    // Unsafe load: retires with 'r', flagged U, no squash marker.
    EXPECT_NE(row_a.find('r'), std::string::npos);
    EXPECT_NE(row_a.find("  U"), std::string::npos);
    EXPECT_EQ(row_a.find('x'), std::string::npos);
    // Squashed branch: 'x' marker, MISP flag, no retire marker.
    EXPECT_NE(row_c.find('x'), std::string::npos);
    EXPECT_NE(row_c.find("MISP"), std::string::npos);
    EXPECT_EQ(row_b.find('x'), std::string::npos);
}

TEST(Waterfall, DegenerateInputs)
{
    EXPECT_EQ(renderWaterfall({}, 0, 10, 32), "(no trace records)\n");
    const auto recs = syntheticRecords();
    EXPECT_EQ(renderWaterfall(recs, recs.size(), 1, 32),
              "(no trace records)\n");
    EXPECT_EQ(renderWaterfall(recs, 0, 1, 1), "(no trace records)\n");
}

// ---------------------------------------------------------------------
// Chrome trace exporter
// ---------------------------------------------------------------------

TEST(ChromeExport, MatchesGoldenFile)
{
    const TraceExporter exp(syntheticRecords());
    EXPECT_EQ(exp.exportChrome(),
              readFile(goldenPath("chrome_trace.json")));
}

TEST(ChromeExport, StrictJsonWithNdaSemantics)
{
    const TraceExporter exp(syntheticRecords());
    const JsonValue v = parseOrDie(exp.exportChrome());
    ASSERT_EQ(at(v, "traceEvents").kind, JsonValue::Kind::kArray);

    std::size_t defer = 0, squash = 0, marks = 0;
    bool process_meta = false;
    for (const JsonValue &e : at(v, "traceEvents").array) {
        const std::string &name = at(e, "name").string;
        if (name == "process_name")
            process_meta = true;
        if (name == "nda_defer") {
            ++defer;
            EXPECT_EQ(at(e, "ph").string, "X");
            EXPECT_EQ(at(e, "ts").number, 30.0);  // completed
            EXPECT_EQ(at(e, "dur").number, 8.0);  // broadcast gap
            EXPECT_EQ(at(e, "tid").number, 1.0);  // the unsafe load
        }
        if (name == "squash") {
            ++squash;
            EXPECT_EQ(at(e, "ph").string, "i");
            EXPECT_EQ(at(e, "args", "detail").string,
                      "branch-mispredict");
            EXPECT_EQ(at(e, "tid").number, 3.0);
        }
        if (name == "unsafe-mark" || name == "unsafe-clear")
            ++marks;
    }
    EXPECT_TRUE(process_meta);
    EXPECT_EQ(defer, 1u) << "only the deferred load gets a defer slice";
    EXPECT_EQ(squash, 1u);
    EXPECT_EQ(marks, 2u);
}

TEST(ChromeExport, EmptyRecordsStillValid)
{
    const TraceExporter exp({});
    const JsonValue v = parseOrDie(exp.exportChrome());
    // Only the process-name metadata event remains.
    ASSERT_EQ(at(v, "traceEvents").array.size(), 1u);
    EXPECT_EQ(at(at(v, "traceEvents").array[0], "name").string,
              "process_name");
}

// ---------------------------------------------------------------------
// Konata exporter
// ---------------------------------------------------------------------

TEST(KonataExport, MatchesGoldenFile)
{
    const TraceExporter exp(syntheticRecords());
    EXPECT_EQ(exp.exportKonata(),
              readFile(goldenPath("konata_trace.kanata")));
}

TEST(KonataExport, HeaderClockAndRetireProtocol)
{
    const TraceExporter exp(syntheticRecords());
    const std::string out = exp.exportKonata();
    ASSERT_EQ(out.rfind("Kanata\t0004\nC=\t10\n", 0), 0u)
        << "header + clock origin at the first fetch cycle";

    // Retire commands: ids 0/1 for the two commits, flush type (1)
    // for the squashed branch with a don't-care id of 0.
    EXPECT_NE(out.find("R\t0\t0\t0"), std::string::npos);
    EXPECT_NE(out.find("R\t1\t1\t0"), std::string::npos);
    EXPECT_NE(out.find("R\t2\t0\t1"), std::string::npos);
    // The unsafe load carries an extra lane-1 label.
    EXPECT_NE(out.find("L\t0\t1\tNDA-unsafe"), std::string::npos);

    // Time must advance monotonically: "C" deltas are positive.
    std::istringstream lines(out);
    std::string line;
    while (std::getline(lines, line)) {
        if (line.rfind("C\t", 0) == 0) {
            EXPECT_GT(std::stoull(line.substr(2)), 0u);
        }
    }
}

TEST(KonataExport, EmptyRecords)
{
    const TraceExporter exp({});
    EXPECT_EQ(exp.exportKonata(), "Kanata\t0004\n");
}

TEST(TextExport, MatchesWaterfall)
{
    const auto recs = syntheticRecords();
    const TraceExporter exp(recs);
    EXPECT_EQ(exp.exportText(96),
              renderWaterfall(recs, 0, recs.size(), 96));
    EXPECT_EQ(exp.render(TraceFormat::kText), exp.exportText());
}

// ---------------------------------------------------------------------
// Canonical stats schema vs the committed golden
// ---------------------------------------------------------------------

TEST(StatsSchema, MatchesGoldenFile)
{
    std::vector<std::string> golden;
    std::istringstream in(readFile(goldenPath("stats_schema.txt")));
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty())
            golden.push_back(line);
    }
    const std::vector<std::string> actual = canonicalStatsSchema();
    EXPECT_EQ(actual, golden)
        << "registered stat names changed; if intentional, regenerate "
           "with: sim_throughput --stats-schema > "
           "tests/golden/stats_schema.txt";
}

} // namespace
} // namespace nda
