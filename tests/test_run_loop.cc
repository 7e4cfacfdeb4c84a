/**
 * @file
 * Tests of CoreBase::run, the one run loop of both cores: each way it
 * can stop is returned, never panicked on, and the harness turns a
 * window that runs off the end of its program into an error naming
 * the workload.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "core/core_factory.hh"
#include "core/ooo_core.hh"
#include "fuzz/differential_fuzzer.hh"
#include "fuzz/invariant_checker.hh"
#include "harness/profiles.hh"
#include "harness/runner.hh"
#include "isa/random_program.hh"
#include "workloads/workload.hh"

namespace nda {
namespace {

constexpr Profile kBothCores[] = {Profile::kOoo, Profile::kInOrder};

/** A counting loop of about 2 x `iterations` instructions, then halt. */
Program
shortProgram(std::int64_t iterations)
{
    ProgramBuilder b("short");
    b.movi(1, 0).movi(2, iterations);
    auto loop = b.label();
    b.addi(1, 1, 1).blt(1, 2, loop);
    b.halt();
    return b.build();
}

/** A workload whose program halts after a few hundred instructions. */
class ShortWorkload : public Workload
{
  public:
    ShortWorkload() : Workload("short_halt", "none") {}
    Program build(std::uint64_t) const override
    {
        return shortProgram(150);
    }
};

TEST(RunLoop, StopsExactlyAtTheTarget)
{
    const Program prog = makeWorkload("compute")->build(1);
    for (Profile profile : kBothCores) {
        auto core = makeCore(prog, makeProfile(profile));
        EXPECT_EQ(core->run(1'000), StopReason::kTarget);
        EXPECT_EQ(core->committedInsts(), 1'000u);
        EXPECT_EQ(core->run(500), StopReason::kTarget);
        EXPECT_EQ(core->committedInsts(), 1'500u);
        EXPECT_EQ(core->run(0), StopReason::kTarget);
        EXPECT_EQ(core->committedInsts(), 1'500u);
    }
}

TEST(RunLoop, ReportsHalt)
{
    const Program prog = shortProgram(50);
    for (Profile profile : kBothCores) {
        auto core = makeCore(prog, makeProfile(profile));
        EXPECT_EQ(core->run(~std::uint64_t{0}), StopReason::kHalted);
        EXPECT_TRUE(core->halted());
        // A halted core stays halted: the next run stops at once.
        const Cycle at = core->cycle();
        EXPECT_EQ(core->run(10), StopReason::kHalted);
        EXPECT_EQ(core->cycle(), at);
    }
}

TEST(RunLoop, StopsAtTheCycleLimit)
{
    const Program prog = makeWorkload("compute")->build(1);
    for (Profile profile : kBothCores) {
        auto core = makeCore(prog, makeProfile(profile));
        EXPECT_EQ(core->run(~std::uint64_t{0}, 300),
                  StopReason::kCycleLimit);
        EXPECT_EQ(core->cycle(), 300u);
        EXPECT_EQ(core->run(~std::uint64_t{0}, 200),
                  StopReason::kCycleLimit);
        EXPECT_EQ(core->cycle(), 500u);
    }
}

TEST(RunLoop, NoCommitWatchdogReturns)
{
    // A front end slower than the watchdog: nothing ever commits.
    SimConfig cfg = makeProfile(Profile::kOoo);
    cfg.core.frontendDelay = 1'000'000;
    auto core = makeCore(makeWorkload("compute")->build(1), cfg);
    EXPECT_EQ(core->run(~std::uint64_t{0}), StopReason::kNoProgress);
    EXPECT_EQ(core->cycle(), CoreBase::kNoCommitCycles);
    EXPECT_EQ(core->committedInsts(), 0u);
}

TEST(RunLoop, StopsAtTheFirstInvariantViolation)
{
    const Program prog = generateRandomProgram(1, paramsForSeed(1));
    OooCore core(prog, makeProfile(Profile::kStrict));
    InvariantChecker checker;
    core.attachChecker(&checker);
    bool applied = false;
    while (!applied && !core.halted() && core.cycle() < 100'000) {
        applied = core.corruptForTest(FuzzCorruption::kEarlyWakeup);
        if (!applied)
            core.tick();
    }
    ASSERT_TRUE(applied);
    ASSERT_TRUE(checker.clean());

    const Cycle at = core.cycle();
    EXPECT_EQ(core.run(~std::uint64_t{0}), StopReason::kInvariant);
    EXPECT_LE(core.cycle() - at, 4u);
    EXPECT_FALSE(checker.clean());
    EXPECT_EQ(checker.violations().front().kind,
              InvariantKind::kWakeupOrder);
}

TEST(RunLoop, HaltedWindowIsAnErrorNamingTheWorkload)
{
    const ShortWorkload w;
    const std::vector<const Workload *> ws{&w};
    const std::vector<SimConfig> cfgs{makeProfile(Profile::kOoo),
                                      makeProfile(Profile::kInOrder)};
    SampleParams p;
    p.samples = 2;
    p.warmupInsts = 100;
    p.measureInsts = 1'000;
    // No fast-forward, one inside the program, and one past its end.
    for (std::uint64_t ff : {0u, 100u, 10'000u}) {
        for (unsigned jobs : {1u, 2u}) {
            p.fastforwardInsts = ff;
            p.jobs = jobs;
            try {
                runGrid(ws, cfgs, p);
                ADD_FAILURE() << "no error at fastforward " << ff;
            } catch (const std::runtime_error &e) {
                const std::string what = e.what();
                EXPECT_NE(what.find("'short_halt'"), std::string::npos)
                    << what;
                EXPECT_NE(what.find("halted"), std::string::npos) << what;
            }
        }
    }
}

TEST(RunLoop, HaltedFastForwardIsAnErrorUnderSmt)
{
    // Only thread 0 comes from the halted snapshot. Thread 1 starts
    // at the entry and could fill this short window on its own.
    const ShortWorkload w;
    const std::vector<const Workload *> ws{&w};
    SimConfig cfg = makeProfile(Profile::kOoo);
    cfg.core.smtThreads = 2;
    SampleParams p;
    p.samples = 1;
    p.fastforwardInsts = 10'000;
    p.warmupInsts = 10;
    p.measureInsts = 50;
    EXPECT_THROW(runGrid(ws, {cfg}, p), std::runtime_error);
}

} // namespace
} // namespace nda
