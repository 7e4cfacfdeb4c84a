/**
 * @file
 * Tests of the in-order (TimingSimpleCPU-like) baseline: correctness
 * and the timing properties the paper's comparison relies on.
 */

#include <gtest/gtest.h>

#include "core/inorder_core.hh"
#include "core/ooo_core.hh"
#include "isa/interpreter.hh"
#include "isa/program.hh"

namespace nda {
namespace {

Program
sumLoop(int n)
{
    ProgramBuilder b("sum");
    b.movi(1, 0);
    b.movi(2, n);
    b.movi(3, 0);
    auto loop = b.label();
    b.add(3, 3, 1);
    b.addi(1, 1, 1);
    b.blt(1, 2, loop);
    b.halt();
    return b.build();
}

TEST(InOrderCore, ArchitecturalCorrectness)
{
    const Program p = sumLoop(100);
    Interpreter ref(p);
    ref.run(1'000'000);
    SimConfig cfg;
    cfg.inOrder = true;
    InOrderCore core(p, cfg);
    core.run(~std::uint64_t{0}, 10'000'000);
    ASSERT_TRUE(core.halted());
    EXPECT_EQ(core.archReg(3), ref.reg(3));
    EXPECT_EQ(core.committedInsts(), ref.instCount());
}

TEST(InOrderCore, UnboundedRunAfterPartialRunHalts)
{
    // run(~0) must saturate its commit target, not wrap it: after a
    // partial run, an unbounded one still runs to the halt.
    const Program p = sumLoop(1000);
    Interpreter ref(p);
    ref.run(1'000'000);
    SimConfig cfg;
    cfg.inOrder = true;
    InOrderCore core(p, cfg);
    core.run(10, ~Cycle{0});
    EXPECT_EQ(core.committedInsts(), 10u);
    core.run(~std::uint64_t{0}, 10'000'000);
    ASSERT_TRUE(core.halted());
    EXPECT_EQ(core.committedInsts(), ref.instCount());
}

TEST(InOrderCore, CpiAtLeastFetchBound)
{
    // TimingSimpleCPU-like model: every instruction pays an i-cache
    // access (overlapped one cycle with execute), so CPI stays near
    // the L1I hit latency.
    const Program p = sumLoop(2000);
    SimConfig cfg;
    cfg.inOrder = true;
    InOrderCore core(p, cfg);
    core.run(~std::uint64_t{0}, 10'000'000);
    ASSERT_TRUE(core.halted());
    EXPECT_GE(core.counters().cpi(), 3.0);
}

TEST(InOrderCore, AlwaysSlowerThanOoo)
{
    const Program p = sumLoop(2000);
    SimConfig io;
    io.inOrder = true;
    InOrderCore in_order(p, io);
    in_order.run(~std::uint64_t{0}, 10'000'000);
    OooCore ooo(p, {});
    ooo.run(~std::uint64_t{0}, 10'000'000);
    EXPECT_GT(in_order.cycle(), ooo.cycle());
}

TEST(InOrderCore, MemoryLatencyCharged)
{
    // A DRAM-missing load must cost the full round trip.
    ProgramBuilder b("miss");
    b.word(0x100000, 7);
    b.movi(1, 0x100000);
    b.load(2, 1, 0, 8);
    b.halt();
    SimConfig cfg;
    cfg.inOrder = true;
    InOrderCore core(b.build(), cfg);
    core.run(~std::uint64_t{0}, 100000);
    ASSERT_TRUE(core.halted());
    EXPECT_GE(core.cycle(), 140u);
    EXPECT_EQ(core.archReg(2), 7u);
}

TEST(InOrderCore, FaultGoesToHandler)
{
    ProgramBuilder b("fault");
    b.segment(0x4000, {0x1}, MemPerm::kKernel);
    b.movi(1, 0x4000);
    b.load(2, 1, 0, 1);
    b.halt();
    auto handler = b.label();
    b.movi(3, 5);
    b.halt();
    b.faultHandlerAt(handler);
    SimConfig cfg;
    cfg.inOrder = true;
    InOrderCore core(b.build(), cfg);
    core.run(~std::uint64_t{0}, 100000);
    EXPECT_EQ(core.archReg(3), 5u);
    EXPECT_EQ(core.archReg(2), 0u);
}

TEST(InOrderCore, NoSpeculationNoMispredicts)
{
    const Program p = sumLoop(500);
    SimConfig cfg;
    cfg.inOrder = true;
    InOrderCore core(p, cfg);
    core.run(~std::uint64_t{0}, 10'000'000);
    EXPECT_EQ(core.counters().condMispredicts, 0u);
    EXPECT_EQ(core.counters().squashes, 0u);
    EXPECT_DOUBLE_EQ(core.counters().ilp(), 1.0)
        << "ILP cannot exceed 1.0 in order (paper Fig 9c)";
}

} // namespace
} // namespace nda
