/**
 * @file
 * perfbench_selftest: proves the benchmark's checks catch failures.
 *
 *   perfbench_selftest [--golden CSV] [--work DIR]
 *
 * Each case injects one fault and expects the measurement loop to
 * count it: a perturbed golden CSV fails every fig07_golden op; a
 * truncated corpus entry is quarantined and served as a miss, not a
 * failure; a request the service rejects counts as failed; replays
 * whose counts differ fail the traced run. Exit 0 iff every case
 * passes.
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "corpus_service.hh"
#include "run.hh"

namespace fs = std::filesystem;
using namespace perfbench;

namespace {

int failures = 0;

void
expect(bool cond, const std::string &what)
{
    std::printf("[%s] %s\n", cond ? " OK " : "FAIL", what.c_str());
    std::fflush(stdout);
    failures += !cond;
}

RunOptions
shortRun()
{
    RunOptions opt;
    opt.seconds = 0.0;
    opt.minOps = 1;
    return opt;
}

void
perturbedGoldenFailsEveryOp(const Paths &paths)
{
    std::ifstream in(paths.golden, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    std::string csv = text.str();
    // Flip the last digit of the first data row's first CPI.
    const std::size_t row = csv.find('\n');
    const std::size_t cell = csv.find(',', row);
    const std::size_t digit = csv.find(',', cell + 1) - 1;
    const bool readable = row != std::string::npos && digit < csv.size();
    expect(readable, "golden CSV readable");
    if (!readable)
        return;
    csv[digit] = csv[digit] == '9' ? '8' : csv[digit] + 1;
    const std::string perturbed = paths.work + "/perturbed_golden.csv";
    std::ofstream(perturbed, std::ios::binary) << csv;

    RunOptions opt = shortRun();
    opt.minOps = 2;
    const Paths p{perturbed, paths.work};
    const RunOutcome out = runBenchmark(
        [&p] { return makeBenchWorkload("fig07_golden", 1, p); }, opt);
    expect(out.attempted == kSetupReps + 2 && out.failed == out.attempted,
           "perturbed golden: every fig07_golden op fails (" +
               std::to_string(out.failed) + "/" +
               std::to_string(out.attempted) + ")");
    fs::remove(perturbed);
}

void
truncatedEntryIsAMiss(const Paths &paths)
{
    CorpusService c(1, paths);
    expect(c.setup().ok, "corpus_service set-up succeeds");
    const std::string entry = c.hotEntryPath(0);
    fs::resize_file(entry, fs::file_size(entry) / 2);

    const OpResult r0 = c.op(0);
    expect(r0.ok, "truncated entry: the request is not a failure");
    expect(!c.servedFromCorpus(0), "truncated entry: counted as a miss");
    expect(c.store().stats().quarantined == 1,
           "truncated entry: quarantined");
    const OpResult r1 = c.op(1);
    expect(r1.ok && c.servedFromCorpus(1),
           "rebuilt entry: the next request hits again");
}

void
rejectedRequestCounts(const Paths &paths)
{
    const RunOutcome out = runBenchmark(
        [&paths] {
            auto c = std::make_unique<CorpusService>(1, paths);
            c->requestFilter = [](const std::string &line) {
                std::string bad = line;
                bad.replace(bad.find("OoO"), 3, "NoSuchProfile");
                return bad;
            };
            return c;
        },
        shortRun());
    // The set-up requests are sent unfiltered; every op is rejected.
    expect(out.attempted > kSetupReps &&
               out.failed == out.attempted - kSetupReps,
           "rejected request counts toward error_rate (" +
               std::to_string(out.failed) + "/" +
               std::to_string(out.attempted) + ")");
}

/** A trivial workload whose replays report `counts(replay number)`. */
class FakeWorkload final : public BenchWorkload
{
  public:
    explicit FakeWorkload(bool stable) : stable_(stable) {}
    OpResult setup() override { return {true, 0.0}; }
    OpResult op(std::size_t) override { return {true, 0.01}; }
    bool
    replay(std::size_t, Tracer &t, Counts &counts) override
    {
        SpanScope op(t, "op");
        counts["core.cycles"] = stable_ ? 7 : replays_;
        ++replays_;
        return true;
    }
    double items(std::size_t) const override { return 1.0; }
    double detailedInsts(std::size_t) const override { return 1.0; }
    void layerMetrics(const Tracer &, const Counts &,
                      Metrics &) const override {}

  private:
    bool stable_;
    std::uint64_t replays_ = 0;
};

void
replayCountsMustRepeat()
{
    RunOptions opt = shortRun();
    opt.trace = true;
    const RunOutcome same = runBenchmark(
        [] { return std::make_unique<FakeWorkload>(true); }, opt);
    expect(same.failed == 0, "replays with equal counts pass");
    const RunOutcome differ = runBenchmark(
        [] { return std::make_unique<FakeWorkload>(false); }, opt);
    expect(differ.failed == 1, "replays whose counts differ fail");
}

} // namespace

int
main(int argc, char **argv)
{
    Paths paths{"tests/golden/fig07_grid_smoke.csv", "."};
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        if (flag == "--golden")
            paths.golden = argv[i + 1];
        else if (flag == "--work")
            paths.work = argv[i + 1];
    }
    expect(!makeBenchWorkload("no_such_workload", 1, paths),
           "unknown workload name is rejected");
    replayCountsMustRepeat();
    rejectedRequestCounts(paths);
    truncatedEntryIsAMiss(paths);
    perturbedGoldenFailsEveryOp(paths);
    std::printf("%s\n", failures ? "SELFTEST FAILED" : "selftest passed");
    return failures ? 1 : 0;
}
