/**
 * @file
 * The measurement loop: set up several times, run timed ops for a
 * fixed number of seconds, and — in the traced run — replay ops twice
 * each under the span recorder. Shared by the driver and the
 * self-test.
 */

#ifndef PERFBENCH_RUN_HH
#define PERFBENCH_RUN_HH

#include <functional>
#include <memory>
#include <string>

#include "bench.hh"

namespace perfbench {

/** Set-ups per untraced run; set-up time is their median. */
constexpr unsigned kSetupReps = 3;

struct RunOptions {
    double seconds = 10.0;  ///< start timed ops until this much passed
    std::size_t minOps = 3; ///< ...but run at least this many
    bool trace = false;     ///< traced run: per-layer metrics, one set-up
    std::string traceOut;   ///< Chrome trace path; empty = not written
};

struct RunOutcome {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    Metrics metrics;
};

using WorkloadFactory = std::function<std::unique_ptr<BenchWorkload>()>;

RunOutcome runBenchmark(const WorkloadFactory &make,
                        const RunOptions &opt);

/** The result line: {"correct":..,"attempted":..,"failed":..,
 *  "metrics":{name:{"value":..,"unit":..}}}. */
std::string resultLine(const RunOutcome &out);

} // namespace perfbench

#endif // PERFBENCH_RUN_HH
