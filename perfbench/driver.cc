/**
 * @file
 * perfbench: time one workload of the simulator library in-process,
 * single-threaded, and print one JSON result line.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--golden CSV] [--work DIR] [--trace-out JSON]
 *
 * Refuses (exit 2) to time an unoptimised or assert-enabled build, and
 * rejects unknown workloads and flags with an error line (exit 2).
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "run.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace {

#ifdef NDEBUG
constexpr bool kAsserts = false;
#else
constexpr bool kAsserts = true;
#endif
#ifdef __OPTIMIZE__
constexpr bool kOptimised = true;
#else
constexpr bool kOptimised = false;
#endif

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: error: %s\n"
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--golden CSV] [--work DIR] "
                 "[--trace-out JSON]\n",
                 why);
    return 2;
}

bool
parseUnsigned(const std::string &text, unsigned long long &out)
{
    if (text.empty() || text[0] == '-')
        return false;
    char *end = nullptr;
    out = std::strtoull(text.c_str(), &end, 10);
    return *end == '\0';
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, golden = "tests/golden/fig07_grid_smoke.csv";
    std::string work = ".", trace_out;
    unsigned long long seed = 0, seconds = 0, trace = 0;
    bool have_workload = false, have_seed = false, have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        if (flag == "--workload") {
            workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            have_seed = parseUnsigned(value, seed);
            if (!have_seed)
                return usage("--seed needs a whole number");
        } else if (flag == "--seconds") {
            have_seconds = parseUnsigned(value, seconds);
            if (!have_seconds)
                return usage("--seconds needs a whole number");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                return usage("--trace takes 0 or 1");
            trace = value == "1";
        } else if (flag == "--golden") {
            golden = value;
        } else if (flag == "--work") {
            work = value;
        } else if (flag == "--trace-out") {
            trace_out = value;
        } else {
            return usage(("unknown flag " + flag).c_str());
        }
    }
    if (!have_workload || !have_seed || !have_seconds)
        return usage("--workload, --seed and --seconds are required");

    note("build type %s (%s, %s)", PERFBENCH_BUILD_TYPE,
         kOptimised ? "optimised" : "unoptimised",
         kAsserts ? "asserts enabled" : "NDEBUG");
    if (kAsserts || !kOptimised) {
        std::fprintf(stderr,
                     "perfbench: error: refusing to time an %s build; "
                     "configure with -DCMAKE_BUILD_TYPE=Release\n",
                     kAsserts ? "assert-enabled" : "unoptimised");
        return 2;
    }

    Paths paths{golden, work};
    if (!makeBenchWorkload(workload, seed, paths)) {
        std::string known;
        for (const std::string &n : workloadNames())
            known += (known.empty() ? "" : ", ") + n;
        std::fprintf(stderr,
                     "perfbench: error: unknown workload '%s' (known: %s)\n",
                     workload.c_str(), known.c_str());
        return 2;
    }

    RunOptions opt;
    opt.seconds = static_cast<double>(seconds);
    opt.trace = trace != 0;
    opt.traceOut = trace_out;
    const RunOutcome out = runBenchmark(
        [&] { return makeBenchWorkload(workload, seed, paths); }, opt);
    note("%s: %llu/%llu ops failed their check (error_rate %.4f)",
         workload.c_str(), static_cast<unsigned long long>(out.failed),
         static_cast<unsigned long long>(out.attempted),
         out.attempted ? static_cast<double>(out.failed) /
                             static_cast<double>(out.attempted)
                       : 0.0);
    std::printf("%s\n", resultLine(out).c_str());
    return 0;
}
