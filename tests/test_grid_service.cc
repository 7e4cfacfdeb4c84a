/**
 * @file
 * Tests of the grid service (harness/grid_service.hh): the JSON
 * parser must accept the protocol's documents and reject malformed
 * input without crashing; handleRequest must stream progress, cell,
 * and done lines for well-formed requests, emit a single error line
 * (and survive) for bad ones and for windows past the program's end,
 * and share its checkpoint corpus across requests so a repeated grid
 * is served without fast-forward work.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "ckpt/checkpoint_store.hh"
#include "core/snapshot.hh"
#include "harness/grid_service.hh"
#include "harness/profiles.hh"
#include "isa/program.hh"

namespace nda {
namespace {

namespace fs = std::filesystem;

JsonValue
parsed(const std::string &text)
{
    JsonValue v;
    std::string error;
    EXPECT_TRUE(parseJson(text, v, error)) << error << " in " << text;
    return v;
}

// --------------------------------------------------------------------------
// JSON parser
// --------------------------------------------------------------------------

TEST(GridServiceJson, ParsesNestedDocument)
{
    const JsonValue v = parsed(
        R"({"name":"x\n\"y\"","n":-2.5,"ok":true,"none":null,)"
        R"("list":[1,[2,3],{"k":"v"}]})");
    ASSERT_EQ(v.kind, JsonValue::Kind::kObject);
    ASSERT_NE(v.find("name"), nullptr);
    EXPECT_EQ(v.find("name")->string, "x\n\"y\"");
    EXPECT_EQ(v.find("n")->number, -2.5);
    EXPECT_TRUE(v.find("ok")->boolean);
    EXPECT_EQ(v.find("none")->kind, JsonValue::Kind::kNull);
    const JsonValue &list = *v.find("list");
    ASSERT_EQ(list.array.size(), 3u);
    EXPECT_EQ(list.array[1].array[1].number, 3.0);
    EXPECT_EQ(list.array[2].find("k")->string, "v");
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(GridServiceJson, RejectsMalformedInput)
{
    const char *bad[] = {
        "",
        "{",
        "[1,",
        "{\"a\":}",
        "{\"a\":1,}",
        "{\"a\" 1}",
        "\"unterminated",
        "{\"a\":1} trailing",
        "nulL",
        "{\"esc\":\"\\q\"}",
        "{\"u\":\"\\u12\"}",
        // The JSON grammar, not strtod's: no hex, sign, padding,
        // bare dot or exponent, infinity or NaN.
        "0x1",
        "+1",
        "0100",
        "-",
        "1.",
        ".5",
        "1e",
        "1e+",
        "inf",
        "NaN",
        // A raw control character inside a string.
        "\"a\tb\"",
        // Duplicate keys, at the top level and nested.
        "{\"id\":\"a\",\"id\":\"b\"}",
        "{\"o\":{\"k\":1,\"k\":1}}",
        // Whitespace is space, tab, LF and CR only.
        "\v{}",
    };
    for (const char *text : bad) {
        JsonValue v;
        std::string error;
        EXPECT_FALSE(parseJson(text, v, error))
            << "accepted: " << text;
        EXPECT_FALSE(error.empty());
    }

    // Nesting depth is bounded — a bracket bomb fails cleanly
    // instead of overflowing the stack.
    const std::string deep(1000, '[');
    JsonValue v;
    std::string error;
    EXPECT_FALSE(parseJson(deep, v, error));
}

// --------------------------------------------------------------------------
// Request handling
// --------------------------------------------------------------------------

struct Captured {
    std::vector<std::string> lines;
    GridService::Emit
    emit()
    {
        return [this](const std::string &line) {
            lines.push_back(line);
        };
    }
    /** Response lines of one type, parsed. */
    std::vector<JsonValue>
    ofType(const std::string &type) const
    {
        std::vector<JsonValue> out;
        for (const std::string &line : lines) {
            const JsonValue v = parsed(line);
            if (v.find("type") && v.find("type")->string == type)
                out.push_back(v);
        }
        return out;
    }
};

const char *kSmallRequest =
    R"({"id":"t1","workloads":["compute"],"profiles":["OoO","Strict"],)"
    R"("fastforward":6000,"warmup":500,"measure":1000,"samples":2,)"
    R"("jobs":2,"chain":true})";

TEST(GridService, RunsGridAndStreamsCellsThenDone)
{
    GridService service;
    Captured cap;
    ASSERT_TRUE(service.handleRequest(kSmallRequest, cap.emit()));

    const auto cells = cap.ofType("cell");
    ASSERT_EQ(cells.size(), 2u);
    EXPECT_EQ(cells[0].find("workload")->string, "compute");
    EXPECT_EQ(cells[0].find("profile")->string, "OoO");
    EXPECT_EQ(cells[1].find("profile")->string, "Strict");
    for (const JsonValue &cell : cells) {
        EXPECT_EQ(cell.find("id")->string, "t1");
        EXPECT_GT(cell.find("cpi")->number, 0.0);
        EXPECT_EQ(cell.find("samples")->number, 2.0);
        // Every cell carries its CPI stack, closing the slot identity.
        ASSERT_NE(cell.find("slots"), nullptr);
        double slots = 0.0;
        for (const auto &[cause, n] : cell.find("slots")->object)
            slots += n.number;
        EXPECT_GT(cell.find("cycles")->number, 0.0);
        EXPECT_EQ(slots, cell.find("slot_width")->number *
                             cell.find("cycles")->number);
    }

    const auto progress = cap.ofType("progress");
    ASSERT_FALSE(progress.empty());
    EXPECT_EQ(progress.back().find("done")->number, 4.0);
    EXPECT_EQ(progress.back().find("total")->number, 4.0);

    const auto done = cap.ofType("done");
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].find("cells")->number, 2.0);
    EXPECT_EQ(done[0].find("windows")->number, 4.0);
    // The done line is last.
    EXPECT_EQ(parsed(cap.lines.back()).find("type")->string, "done");

    EXPECT_EQ(service.stats().requests, 1u);
    EXPECT_EQ(service.stats().cells, 2u);
    EXPECT_EQ(service.stats().errors, 0u);
}

TEST(GridService, RejectsBadRequestsWithErrorLinesAndSurvives)
{
    GridService service;
    const struct {
        const char *request;
        const char *needle;
    } cases[] = {
        {"not json at all", "bad JSON"},
        {"[1,2,3]", "must be a JSON object"},
        {R"({"workloads":["nope"]})", "unknown workload"},
        {R"({"profiles":["NoSuch"]})", "unknown profile"},
        {R"({"chain":true})", "stride"},
        {R"({"samples":0})", "samples"},
        {R"({"measure":0})", "measure"},
        {R"({"samples":"three"})", "non-negative number"},
        {R"({"workloads":"compute"})", "array of strings"},
        {R"({"chain":1})", "boolean"},
        {R"({"samples":4294967297})", "integer"},
        {R"({"samples":1.9})", "integer"},
        {R"({"jobs":4294967296})", "integer"},
        {R"({"seed":1e20})", "integer"},
        {R"({"seed":9007199254740993})", "integer"},
        {R"({"measure":-1})", "non-negative number"},
        {R"({"samples":0x1})", "bad JSON"},
        {R"({"samples":+1})", "bad JSON"},
        {R"({"samples":0100})", "bad JSON"},
        {R"({"id":"a","samples":1,"id":"b"})", "duplicate key"},
        {R"({"sampels":1})", "unknown field 'sampels'"},
        {R"({"cpi_stak":true})", "unknown field 'cpi_stak'"},
        {R"({"cpi_stack":true})", "unknown field 'cpi_stack'"},
        {R"({"id":7})", "field 'id' must be a string"},
        // Over the request budget: rejected before runGrid sizes its
        // per-window slots.
        {R"({"samples":4000000000,"workloads":["crc"],)"
         R"("profiles":["OoO"],"warmup":1,"measure":1})",
         "windows"},
        {R"({"workloads":["crc"],"profiles":["OoO"],"samples":1,)"
         R"("measure":9007199254740991})",
         "instructions"},
        {R"({"workloads":["crc"],"profiles":["OoO"],"samples":1000,)"
         R"("fastforward":200000000,"measure":1})",
         "instructions"},
    };
    for (const auto &c : cases) {
        Captured cap;
        EXPECT_FALSE(service.handleRequest(c.request, cap.emit()))
            << c.request;
        ASSERT_EQ(cap.lines.size(), 1u) << c.request;
        const JsonValue v = parsed(cap.lines[0]);
        EXPECT_EQ(v.find("type")->string, "error");
        EXPECT_NE(v.find("error")->string.find(c.needle),
                  std::string::npos)
            << "for " << c.request << " got: "
            << v.find("error")->string;
    }
    EXPECT_EQ(service.stats().errors, std::size(cases));
    EXPECT_EQ(service.stats().requests, 0u);

    // The service still serves real work afterwards.
    Captured cap;
    EXPECT_TRUE(service.handleRequest(kSmallRequest, cap.emit()));
    EXPECT_EQ(cap.ofType("done").size(), 1u);
}

TEST(GridService, AnswersEveryMutatedRequestWithOneErrorOrDone)
{
    // The checkpoint reader's corruption tests, applied to the request
    // path: every truncation of a small valid request, and every byte
    // of it XOR 0x01 (which turns digits into neighbouring digits, so
    // numbers, keys and names all move). Each mutated line gets
    // exactly one error line or a normal done line, and the service
    // still serves the clean request afterwards.
    const std::string clean =
        R"({"id":"f","workloads":["compute"],"profiles":["OoO"],)"
        R"("fastforward":2000,"warmup":100,"measure":500,"samples":1,)"
        R"("jobs":1,"chain":true})";
    std::vector<std::string> mutants;
    for (std::size_t len = 0; len < clean.size(); ++len)
        mutants.push_back(clean.substr(0, len));
    for (std::size_t i = 0; i < clean.size(); ++i) {
        mutants.push_back(clean);
        mutants.back()[i] ^= 0x01;
    }

    GridService service;
    for (const std::string &request : mutants) {
        Captured cap;
        if (service.handleRequest(request, cap.emit())) {
            EXPECT_EQ(cap.ofType("error").size(), 0u) << request;
            EXPECT_EQ(cap.ofType("done").size(), 1u) << request;
        } else {
            ASSERT_EQ(cap.lines.size(), 1u) << request;
            EXPECT_EQ(cap.ofType("error").size(), 1u) << request;
        }
    }

    Captured cap;
    EXPECT_TRUE(service.handleRequest(clean, cap.emit()));
    EXPECT_EQ(cap.ofType("done").size(), 1u);
}

TEST(GridService, SharesCorpusAcrossRequestsBitIdentically)
{
    const fs::path dir =
        fs::path(testing::TempDir()) / "grid_service_corpus";
    fs::remove_all(dir);
    CheckpointStore store(dir.string());
    GridService service(&store);

    Captured first, second;
    ASSERT_TRUE(service.handleRequest(kSmallRequest, first.emit()));
    ASSERT_TRUE(service.handleRequest(kSmallRequest, second.emit()));

    const auto cold = first.ofType("done");
    const auto warm = second.ofType("done");
    ASSERT_EQ(cold.size(), 1u);
    ASSERT_EQ(warm.size(), 1u);
    EXPECT_EQ(cold[0].find("ckpt_hits")->number, 0.0);
    EXPECT_GT(cold[0].find("ckpt_misses")->number, 0.0);
    EXPECT_GT(warm[0].find("ckpt_hits")->number, 0.0);
    EXPECT_EQ(warm[0].find("ckpt_misses")->number, 0.0);
    EXPECT_EQ(warm[0].find("ff_runs")->number, 0.0)
        << "second request must run no fast-forwards";

    // Cell lines are rendered deterministically: the warm request's
    // results are byte-identical to the cold request's.
    const auto cold_cells = first.ofType("cell");
    const auto warm_cells = second.ofType("cell");
    ASSERT_EQ(cold_cells.size(), warm_cells.size());
    std::vector<std::string> cold_lines, warm_lines;
    for (const std::string &line : first.lines)
        if (line.find("\"cell\"") != std::string::npos)
            cold_lines.push_back(line);
    for (const std::string &line : second.lines)
        if (line.find("\"cell\"") != std::string::npos)
            warm_lines.push_back(line);
    EXPECT_EQ(cold_lines, warm_lines);

    // The done lines are the corpus's own counts, request by request.
    EXPECT_EQ(store.stats().hits,
              static_cast<std::uint64_t>(
                  warm[0].find("ckpt_hits")->number));
    EXPECT_EQ(store.stats().misses,
              static_cast<std::uint64_t>(
                  cold[0].find("ckpt_misses")->number));
    fs::remove_all(dir);
}

TEST(GridService, AnswersAHaltedWindowWithOneErrorLineAndSurvives)
{
    // No registered workload halts, so plant a halted checkpoint in
    // the corpus under compute's key: the window restored from it
    // stops before it measures anything.
    const fs::path dir =
        fs::path(testing::TempDir()) / "grid_service_halted";
    fs::remove_all(dir);
    CheckpointStore store(dir.string());
    const SimConfig cfg = makeProfile(Profile::kOoo);
    ProgramBuilder b("halts");
    b.movi(1, 7).halt();
    const SimSnapshot halted = buildWarmCheckpoint(
        b.build(), cfg.memory, cfg.core.predictor, 2'000);
    ASSERT_TRUE(halted.arch.halted);
    store.store({"compute", 1, 2'000,
                 geometryFingerprint(cfg.memory, cfg.core.predictor)},
                halted);

    GridService service(&store);
    Captured cap;
    EXPECT_FALSE(service.handleRequest(
        R"({"id":"h","workloads":["compute"],"profiles":["OoO"],)"
        R"("fastforward":2000,"warmup":100,"measure":500,"samples":1})",
        cap.emit()));
    ASSERT_EQ(cap.lines.size(), 1u);
    const JsonValue v = parsed(cap.lines[0]);
    EXPECT_EQ(v.find("type")->string, "error");
    EXPECT_EQ(v.find("id")->string, "h");
    const std::string &why = v.find("error")->string;
    EXPECT_NE(why.find("'compute'"), std::string::npos) << why;
    EXPECT_NE(why.find("halted"), std::string::npos) << why;
    EXPECT_EQ(service.stats().errors, 1u);

    Captured next;
    EXPECT_TRUE(service.handleRequest(kSmallRequest, next.emit()));
    EXPECT_EQ(next.ofType("done").size(), 1u);
    fs::remove_all(dir);
}

} // namespace
} // namespace nda
