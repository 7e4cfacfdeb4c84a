/**
 * @file
 * SMT-specific behavioural tests of the OoO core: two hardware
 * contexts running distinct (or homogeneous) instruction streams,
 * per-thread architectural state, per-thread NDA policy split (the
 * co-residency threat model's asymmetric case), the per-thread
 * issue-queue partition, stat names that do not depend on the thread
 * count, and checkpoint save/restore with extra thread contexts.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/issue_queue.hh"
#include "core/ooo_core.hh"
#include "core/snapshot.hh"
#include "isa/program.hh"
#include "obs/stats_registry.hh"

namespace nda {
namespace {

/**
 * Heterogeneous two-thread program: thread 0 sums 1..100 into r1 and
 * stores it at 0x1000; thread 1 (smtEntry) computes 2^20 by doubling
 * and stores it at 0x1008. Memory is shared, the stores are disjoint.
 */
Program
twoThreadProgram()
{
    ProgramBuilder b("smt-hetero");
    b.zeroSegment(0x1000, 64);
    b.movi(1, 0);
    b.movi(2, 0);
    auto sum_loop = b.label();
    b.addi(2, 2, 1);
    b.add(1, 1, 2);
    b.movi(3, 100);
    b.blt(2, 3, sum_loop);
    b.movi(4, 0x1000);
    b.store(4, 0, 1, 8);
    b.halt();

    const Addr t1_entry = b.here();
    b.movi(1, 1);
    b.movi(2, 0);
    auto dbl_loop = b.label();
    b.add(1, 1, 1);
    b.addi(2, 2, 1);
    b.movi(3, 20);
    b.blt(2, 3, dbl_loop);
    b.movi(4, 0x1008);
    b.store(4, 0, 1, 8);
    b.halt();

    Program p = b.build();
    p.smtEntry = t1_entry;
    return p;
}

SimConfig
smtConfig(unsigned threads)
{
    SimConfig cfg;
    cfg.core.smtThreads = threads;
    return cfg;
}

TEST(SmtCore, TwoThreadsRunDistinctStreams)
{
    OooCore core(twoThreadProgram(), smtConfig(2));
    core.run(~std::uint64_t{0}, 200'000);
    ASSERT_TRUE(core.halted());
    EXPECT_EQ(core.numThreads(), 2u);
    EXPECT_TRUE(core.threadHalted(0));
    EXPECT_TRUE(core.threadHalted(1));

    EXPECT_EQ(core.archRegOf(0, 1), 5050u);
    EXPECT_EQ(core.archRegOf(1, 1), 1u << 20);
    // archReg() is thread 0's view.
    EXPECT_EQ(core.archReg(1), core.archRegOf(0, 1));
    // Both stores reached the shared memory.
    EXPECT_EQ(core.mem().read(0x1000, 8), 5050u);
    EXPECT_EQ(core.mem().read(0x1008, 8), 1u << 20);
}

TEST(SmtCore, HomogeneousCoRunWhenNoSmtEntry)
{
    // Without smtEntry both threads execute the same stream from
    // `entry`; each context must reach the same architectural result.
    Program p = twoThreadProgram();
    p.smtEntry = ~Addr{0};
    OooCore core(p, smtConfig(2));
    core.run(~std::uint64_t{0}, 200'000);
    ASSERT_TRUE(core.halted());
    EXPECT_EQ(core.archRegOf(0, 1), 5050u);
    EXPECT_EQ(core.archRegOf(1, 1), 5050u);
}

TEST(SmtCore, SingleThreadCoreHasNoPerThreadView)
{
    OooCore core(twoThreadProgram(), smtConfig(1));
    core.run(~std::uint64_t{0}, 200'000);
    ASSERT_TRUE(core.halted());
    EXPECT_EQ(core.numThreads(), 1u);
    // smtEntry is ignored: only thread 0's stream ran.
    EXPECT_EQ(core.archReg(1), 5050u);
    EXPECT_EQ(core.mem().read(0x1008, 8), 0u);
}

TEST(SmtCore, StatNamesDoNotDependOnThreadCount)
{
    // The counters are pooled over hardware threads: an smt=2 core
    // registers exactly the stat names an smt=1 core does.
    const auto names = [](unsigned threads) {
        OooCore core(twoThreadProgram(), smtConfig(threads));
        StatsRegistry reg;
        core.registerStats(reg, "core");
        return reg.names();
    };
    const std::vector<std::string> single = names(1);
    EXPECT_FALSE(single.empty());
    EXPECT_EQ(names(2), single);
}

TEST(SmtCore, FetchPoliciesAgreeArchitecturally)
{
    // Round-robin vs ICOUNT arbitration is timing-only; both must
    // complete with identical architectural results.
    for (const SmtFetchPolicy pol :
         {SmtFetchPolicy::kRoundRobin, SmtFetchPolicy::kIcount}) {
        SimConfig cfg = smtConfig(2);
        cfg.core.smtFetchPolicy = pol;
        OooCore core(twoThreadProgram(), cfg);
        core.run(~std::uint64_t{0}, 200'000);
        ASSERT_TRUE(core.halted());
        EXPECT_EQ(core.archRegOf(0, 1), 5050u);
        EXPECT_EQ(core.archRegOf(1, 1), 1u << 20);
    }
}

TEST(SmtCore, PerThreadNdaPolicySplit)
{
    // The co-residency threat model: a strict-NDA victim on thread 0
    // sharing the core with an unprotected thread 1 running the SAME
    // code. Only the protected thread's instructions may be marked
    // unsafe; the policy is timing-only so both results agree. Every
    // instruction leaves the machine through the retire hook, at
    // commit or when squashed.
    Program p = twoThreadProgram();
    p.smtEntry = ~Addr{0}; // homogeneous: identical streams
    SimConfig cfg = smtConfig(2);
    cfg.security.propagation = NdaPolicy::kStrict;
    cfg.perThreadSecurity = true;
    cfg.security1 = SecurityConfig{};

    OooCore core(p, cfg);
    std::uint64_t unsafe[2] = {0, 0};
    core.setRetireHook([&unsafe](const DynInst &inst, Cycle) {
        if (inst.everUnsafe)
            ++unsafe[inst.tid];
    });
    core.run(~std::uint64_t{0}, 400'000);
    ASSERT_TRUE(core.halted());
    EXPECT_EQ(core.archRegOf(0, 1), 5050u);
    EXPECT_EQ(core.archRegOf(1, 1), 5050u);

    EXPECT_GT(unsafe[0], 0u)
        << "strict NDA on thread 0 must mark unsafe instructions";
    EXPECT_EQ(unsafe[1], 0u)
        << "the unprotected thread must never be marked unsafe";
}

TEST(SmtCore, IssueQueuePartitionTracksPerThreadOccupancy)
{
    DynInstPool pool;
    PhysRegFile regs(16);
    IssueQueue iq(8);

    auto make = [&pool](unsigned tid) {
        DynInstPtr inst = pool.create();
        inst->tid = tid;
        return inst;
    };

    std::vector<DynInstPtr> held;
    held.push_back(make(0));
    held.push_back(make(0));
    held.push_back(make(1));
    for (const DynInstPtr &i : held)
        iq.insert(i);
    EXPECT_EQ(iq.occupancyOf(0), 2u);
    EXPECT_EQ(iq.occupancyOf(1), 1u);
    EXPECT_EQ(iq.occupancyOf(7), 0u); // never-seen tid

    // A squash releases only the squashed thread's share.
    held[0]->squashed = true;
    iq.removeSquashed();
    EXPECT_EQ(iq.occupancyOf(0), 1u);
    EXPECT_EQ(iq.occupancyOf(1), 1u);

    // Issue releases the issuing instruction's thread.
    iq.selectReady(regs, [](const DynInstPtr &inst) {
        return inst->tid == 1; // issue thread 1's entry only
    });
    EXPECT_EQ(iq.occupancyOf(0), 1u);
    EXPECT_EQ(iq.occupancyOf(1), 0u);

    iq.clear();
    EXPECT_EQ(iq.occupancyOf(0), 0u);
}

TEST(SmtCore, CheckpointRoundTripCarriesExtraThreads)
{
    // Stop an smt=2 run midway, snapshot, restore into a fresh core,
    // and finish: both threads must land on the same architectural
    // results as an uninterrupted run.
    const Program p = twoThreadProgram();
    OooCore first(p, smtConfig(2));
    first.run(300, ~Cycle{0});
    ASSERT_FALSE(first.halted());

    SimSnapshot snap;
    first.saveCheckpoint(snap);
    ASSERT_EQ(snap.extraThreads.size(), 1u);
    // Thread 1's memory image lives in the shared arch.mem only.
    EXPECT_EQ(snap.extraThreads[0].mem.pageCount(), 0u);

    OooCore resumed(p, smtConfig(2));
    resumed.restoreCheckpoint(snap);
    // Constructed in the snapshot: the same machine.
    OooCore started(p, smtConfig(2), &snap);
    SimSnapshot a, b;
    resumed.saveCheckpoint(a);
    started.saveCheckpoint(b);
    EXPECT_TRUE(a == b);
    resumed.run(~std::uint64_t{0}, 200'000);
    ASSERT_TRUE(resumed.halted());
    EXPECT_EQ(resumed.archRegOf(0, 1), 5050u);
    EXPECT_EQ(resumed.archRegOf(1, 1), 1u << 20);
    EXPECT_EQ(resumed.mem().read(0x1000, 8), 5050u);
    EXPECT_EQ(resumed.mem().read(0x1008, 8), 1u << 20);
}

TEST(SmtCore, SingleThreadSnapshotSeedsThreadZeroOfSmtCore)
{
    // Backward compatibility: an smt=1 checkpoint (no extraThreads)
    // restores into an smt=2 core, seeding thread 0; thread 1 starts
    // fresh at the program's smtEntry.
    const Program p = twoThreadProgram();
    OooCore single(p, smtConfig(1));
    single.run(200, ~Cycle{0});
    ASSERT_FALSE(single.halted());

    SimSnapshot snap;
    single.saveCheckpoint(snap);
    ASSERT_TRUE(snap.extraThreads.empty());

    OooCore wide(p, smtConfig(2));
    wide.restoreCheckpoint(snap);
    // Constructed in the snapshot: thread 1 takes its cold start
    // there too, so the two machines are the same, before and after
    // running.
    OooCore started(p, smtConfig(2), &snap);
    SimSnapshot a, b;
    wide.saveCheckpoint(a);
    started.saveCheckpoint(b);
    ASSERT_EQ(b.extraThreads.size(), 1u);
    EXPECT_EQ(b.extraThreads[0].pc, p.smtEntry);
    EXPECT_TRUE(a == b);
    wide.run(~std::uint64_t{0}, 200'000);
    ASSERT_TRUE(wide.halted());
    EXPECT_EQ(wide.archRegOf(0, 1), 5050u);
    EXPECT_EQ(wide.archRegOf(1, 1), 1u << 20);
    started.run(~std::uint64_t{0}, 200'000);
    EXPECT_EQ(started.cycle(), wide.cycle());
    wide.saveCheckpoint(a);
    started.saveCheckpoint(b);
    EXPECT_TRUE(a == b);
}

} // namespace
} // namespace nda
