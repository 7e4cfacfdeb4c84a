/**
 * @file
 * Tests of the parallel experiment harness: parallelFor's edge
 * cases, and the determinism contract — for a fixed seed, the sampled
 * runner and the grid sweep must produce bit-identical WindowStats
 * regardless of --jobs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

#include "common/thread_pool.hh"
#include "harness/profiles.hh"
#include "harness/runner.hh"
#include "workloads/workload.hh"

namespace nda {
namespace {

// --------------------------------------------------------------------------
// ThreadPool
// --------------------------------------------------------------------------

TEST(ThreadPool, ZeroTasksIsANoop)
{
    int calls = 0;
    parallelFor(4, 0, [&](std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, SingleLaneRunsInline)
{
    const auto caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    parallelFor(1, 5, [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
    });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, MoreTasksThanWorkers)
{
    constexpr std::size_t kTasks = 100;
    std::vector<std::atomic<int>> hits(kTasks);
    parallelFor(3, kTasks, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < kTasks; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "task " << i;
}

/** Threads of this process, from /proc/self/task (0 if unreadable). */
std::size_t
liveThreads()
{
    std::error_code ec;
    std::size_t n = 0;
    for (std::filesystem::directory_iterator it("/proc/self/task", ec), end;
         !ec && it != end; it.increment(ec))
        ++n;
    return ec ? 0 : n;
}

TEST(ThreadPool, NoMoreLanesThanTasks)
{
    // Eight lanes asked for, two tasks: the tasks run on at most two
    // distinct threads, and the call starts at most one thread.
    const std::size_t before = liveThreads();
    std::mutex mutex;
    std::set<std::thread::id> ids;
    std::size_t peak = 0;
    parallelFor(8, 2, [&](std::size_t) {
        std::lock_guard<std::mutex> lock(mutex);
        ids.insert(std::this_thread::get_id());
        peak = std::max(peak, liveThreads());
    });
    EXPECT_GE(ids.size(), 1u);
    EXPECT_LE(ids.size(), 2u);
    if (before > 0) {
        EXPECT_LE(peak, before + 1);
    }
}

TEST(ThreadPool, ExceptionPropagatesToCaller)
{
    EXPECT_THROW(parallelFor(4, 50,
                             [&](std::size_t i) {
                                 if (i == 7)
                                     throw std::runtime_error("boom");
                             }),
                 std::runtime_error);
    // A later call is unaffected by the failed one.
    std::atomic<int> ok{0};
    parallelFor(4, 8, [&](std::size_t) { ++ok; });
    EXPECT_EQ(ok.load(), 8);
}

TEST(ThreadPool, ExceptionOnSerialPathToo)
{
    EXPECT_THROW(
        parallelFor(1, 3, [](std::size_t) { throw std::logic_error("x"); }),
        std::logic_error);
}

/**
 * Death-test child body: 4096 lanes asked for under a 64-process
 * limit. Drops root first, because the kernel exempts root from
 * RLIMIT_NPROC. Each task takes a few milliseconds, so the lanes
 * already started are still running when the next thread is asked
 * for. Exits 0 iff every task ran. The alarm turns a hang into a
 * failure.
 */
[[noreturn]] void
runPoolUnderProcessLimit()
{
    ::alarm(30);
    if (::geteuid() == 0 &&
        (::setgid(65534) != 0 || ::setuid(65534) != 0))
        std::_Exit(2);
    const rlimit lim{64, 64};
    if (::setrlimit(RLIMIT_NPROC, &lim) != 0)
        std::_Exit(3);
    std::atomic<std::size_t> sum{0};
    parallelFor(4096, 1000, [&](std::size_t i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        sum += i;
    });
    std::_Exit(sum.load() == 999u * 1000u / 2u ? 0 : 1);
}

TEST(ThreadPoolDeathTest, RunsWithTheLanesTheHostCanStart)
{
    // Asked for more lanes than the process may start threads,
    // parallelFor warns and runs every task on the lanes it got.
    EXPECT_EXIT(runPoolUnderProcessLimit(), testing::ExitedWithCode(0),
                "thread pool: started");
}

// --------------------------------------------------------------------------
// Determinism: jobs=1 vs jobs=N
// --------------------------------------------------------------------------

void
expectIdentical(const WindowStats &a, const WindowStats &b)
{
    // Exact equality on doubles is intentional: the contract is
    // bit-identical output, not merely close.
    EXPECT_EQ(a.cpi, b.cpi);
    EXPECT_EQ(a.mlp, b.mlp);
    EXPECT_EQ(a.ilp, b.ilp);
    EXPECT_EQ(a.dispatchToIssue, b.dispatchToIssue);
    EXPECT_EQ(a.commitFrac, b.commitFrac);
    EXPECT_EQ(a.memStallFrac, b.memStallFrac);
    EXPECT_EQ(a.backendStallFrac, b.backendStallFrac);
    EXPECT_EQ(a.frontendStallFrac, b.frontendStallFrac);
    EXPECT_EQ(a.condMispredictRate, b.condMispredictRate);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
}

void
expectIdentical(const RunResult &a, const RunResult &b)
{
    expectIdentical(a.mean, b.mean);
    EXPECT_EQ(a.cpiCi95, b.cpiCi95);
    EXPECT_EQ(a.cpiSamples, b.cpiSamples);
}

SampleParams
quickParams(unsigned jobs)
{
    SampleParams sp;
    sp.warmupInsts = 3'000;
    sp.measureInsts = 6'000;
    sp.samples = 4;
    sp.baseSeed = 11;
    sp.jobs = jobs;
    return sp;
}

TEST(ParallelRunner, SampledMatchesSerialForEveryCell)
{
    const std::vector<std::string> names{"compute", "branchy",
                                         "ptrchase"};
    const std::vector<Profile> profiles{Profile::kOoo,
                                        Profile::kFullProtection,
                                        Profile::kInOrder};
    for (const std::string &n : names) {
        const auto w = makeWorkload(n);
        ASSERT_NE(w, nullptr);
        for (Profile p : profiles) {
            const SimConfig cfg = makeProfile(p);
            const RunResult serial =
                runSampled(*w, cfg, quickParams(1));
            const RunResult parallel =
                runSampled(*w, cfg, quickParams(8));
            expectIdentical(serial, parallel);
        }
    }
}

TEST(ParallelRunner, GridMatchesSampledCells)
{
    std::vector<std::unique_ptr<Workload>> ws;
    ws.push_back(makeWorkload("crc"));
    ws.push_back(makeWorkload("stream"));
    const std::vector<SimConfig> configs{
        makeProfile(Profile::kOoo),
        makeProfile(Profile::kPermissiveBr)};

    const std::vector<RunResult> grid =
        runGrid(ws, configs, quickParams(8));
    ASSERT_EQ(grid.size(), ws.size() * configs.size());
    for (std::size_t w = 0; w < ws.size(); ++w) {
        for (std::size_t c = 0; c < configs.size(); ++c) {
            const RunResult cell =
                runSampled(*ws[w], configs[c], quickParams(1));
            expectIdentical(grid[w * configs.size() + c], cell);
        }
    }
}

TEST(ParallelRunner, GridProgressCoversEveryWindow)
{
    std::vector<std::unique_ptr<Workload>> ws;
    ws.push_back(makeWorkload("compute"));
    const std::vector<SimConfig> configs{makeProfile(Profile::kOoo)};
    SampleParams sp = quickParams(4);
    std::size_t calls = 0;
    std::size_t last_done = 0;
    runGrid(ws, configs, sp, [&](std::size_t done, std::size_t total) {
        ++calls;
        EXPECT_EQ(total, sp.samples);
        EXPECT_EQ(done, last_done + 1); // serialized, monotonic
        last_done = done;
    });
    EXPECT_EQ(calls, sp.samples);
}

} // namespace
} // namespace nda
