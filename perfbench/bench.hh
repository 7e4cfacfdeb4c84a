/**
 * @file
 * The benchmark's workload interface and the metric plumbing shared by
 * the driver, the three workloads and the self-test.
 *
 * A workload owns its inputs and its reference outputs. Every op calls
 * one public entry point of the simulator library (runGrid,
 * GridService::handleRequest, fuzzProgram), times only that call, and
 * then checks the call's output. A replay re-executes one op through
 * the library's lower-level public calls with a span around each, for
 * the traced run.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.hh"

namespace perfbench {

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Metrics in report order. */
class Metrics
{
  public:
    void set(const std::string &name, double value,
             const std::string &unit);
    const std::vector<Metric> &all() const { return all_; }
    const Metric *find(const std::string &name) const;

  private:
    std::vector<Metric> all_;
};

/** Outcome of one op: whether its output checked, and the host
 *  seconds of the public call alone (checks excluded), as wall time
 *  and as the calling thread's CPU time. */
struct OpResult {
    bool ok = false;
    double seconds = 0.0;
    double cpuSeconds = 0.0;
};

/** Simulated counts of one replay, by metric name. On a pure
 *  speed-up of the simulator they must not change. */
using Counts = std::map<std::string, std::uint64_t>;

/** Where a workload finds its reference data and scratch space. */
struct Paths {
    std::string golden;  ///< tests/golden/fig07_grid_smoke.csv
    std::string work;    ///< writable scratch directory
};

class BenchWorkload
{
  public:
    virtual ~BenchWorkload() = default;

    /** Make the inputs and run the first, cold op (checked). */
    virtual OpResult setup() = 0;

    /** Timed op `i` through the library's public entry point. */
    virtual OpResult op(std::size_t i) = 0;

    /** Timed ops run in whole groups of this many (a traffic mix). */
    virtual std::size_t opGroup() const { return 1; }

    /** Ops the traced run replays, out of the `n` that ran. */
    virtual std::vector<std::size_t> replayOps(std::size_t n) const;

    /**
     * Replay op `i` with a span around each public call; the op's
     * work sits under one root span named "op", side measurements
     * under roots named "side". Fills `counts` with the replay's
     * simulated counts. False if the replay's results differ from
     * what op `i` produced.
     */
    virtual bool replay(std::size_t i, Tracer &t, Counts &counts) = 0;

    /** Work items op `i` served (grid cells, requests, seeds). */
    virtual double items(std::size_t i) const = 0;

    /** Detailed-core instructions (warm-up plus measured) of op `i`. */
    virtual double detailedInsts(std::size_t i) const = 0;

    /** Per-layer metrics of the traced run; layers a workload does
     *  not exercise are left unset and reported as 0. */
    virtual void layerMetrics(const Tracer &t, const Counts &counts,
                              Metrics &m) const = 0;
};

/** Names of the workloads, in BENCHMARK.json order. */
std::vector<std::string> workloadNames();

/** nullptr for an unknown name. */
std::unique_ptr<BenchWorkload>
makeBenchWorkload(const std::string &name, std::uint64_t seed,
                  const Paths &paths);

std::unique_ptr<BenchWorkload>
makeFig07Golden(std::uint64_t seed, const Paths &paths);
std::unique_ptr<BenchWorkload>
makeCorpusService(std::uint64_t seed, const Paths &paths);
std::unique_ptr<BenchWorkload>
makeFuzzCampaign(std::uint64_t seed, const Paths &paths);

// --- small shared helpers ---------------------------------------------

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** CPU seconds the calling thread has used (CLOCK_THREAD_CPUTIME_ID). */
double threadCpuSeconds();

/** Times one public call in wall and thread-CPU seconds. */
class Stopwatch
{
  public:
    Stopwatch() : wall0_(Clock::now()), cpu0_(threadCpuSeconds()) {}

    void
    stop(OpResult &r) const
    {
        r.seconds = secondsSince(wall0_);
        r.cpuSeconds = threadCpuSeconds() - cpu0_;
    }

  private:
    Clock::time_point wall0_;
    double cpu0_;
};

double median(std::vector<double> v);
/** Nearest-rank percentile, q in [0, 1]. */
double percentile(std::vector<double> v, double q);
double sum(const std::vector<double> &v);
/** a / b, or 0 when b is 0. */
double ratio(double a, double b);

/** Messages go to stderr so stdout ends with the result line. */
void note(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
