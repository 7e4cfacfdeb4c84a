/**
 * @file
 * Lockstep differential tests of the predecoded threaded-code run()
 * loop (isa/predecode.hh, interpreter.cc) against the switch-dispatch
 * step() oracle. run() must be bit-identical to a step() loop for
 * every attachment configuration (warming x predictor x DIFT), every
 * budget chunking, and every program shape the fuzzer can generate —
 * architectural state, taint image, warming images (cache tags,
 * predictor tables), and the functional-warming work counters all
 * have to match exactly. Also holds the MSR out-of-range fix: an
 * index past kNumMsrRegs faults on the interpreter and on both
 * timing cores instead of shifting out of range.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "branch/predictor_unit.hh"
#include "core/core_factory.hh"
#include "core/snapshot.hh"
#include "dift/secret_map.hh"
#include "dift/taint_engine.hh"
#include "harness/profiles.hh"
#include "isa/interpreter.hh"
#include "isa/predecode.hh"
#include "isa/program.hh"
#include "isa/random_program.hh"
#include "mem/hierarchy.hh"
#include "workloads/workload.hh"

namespace nda {
namespace {

/** Secrets seeded into the first data segment, fuzzer-style. */
SecretMap
secretsFor(const Program &prog)
{
    SecretMap secrets;
    for (const auto &seg : prog.data) {
        if (seg.bytes.empty())
            continue;
        const unsigned n =
            static_cast<unsigned>(std::min<std::size_t>(64, seg.bytes.size()));
        secrets.addMemRange(seg.base, n, "lockstep-secret");
        break;
    }
    return secrets;
}

/** One interpreter with optional warming/DIFT attachments. */
struct Machine {
    TaintEngine dift;
    Interpreter it;
    MemHierarchy hier{HierarchyParams{}};
    PredictorUnit bp{PredictorParams{}};

    Machine(const Program &prog, const SecretMap &secrets, bool warm,
            bool use_dift)
        : dift(secrets), it(prog)
    {
        if (warm)
            it.attachWarming(hier, bp);
        if (use_dift)
            it.attachDift(&dift);
    }

    /** Whole-machine image, judged by SimSnapshot::operator==. */
    SimSnapshot
    snapshot() const
    {
        SimSnapshot s;
        s.arch = it.save();
        s.hasMem = true;
        s.mem = hier.save();
        s.memParams = HierarchyParams{};
        s.hasPredictor = true;
        s.predictor = bp.save();
        s.bpParams = PredictorParams{};
        return s;
    }
};

/**
 * Drive `fast` with run() in deliberately awkward chunks (to land
 * budget boundaries mid-loop, right before branches, on the final
 * instruction) and `oracle` with single step() calls to the same
 * instruction count, then require bit-identity everywhere.
 */
void
expectLockstep(const Program &prog, std::uint64_t total, bool warm,
               bool use_dift, const char *what)
{
    const SecretMap secrets = secretsFor(prog);
    Machine fast(prog, secrets, warm, use_dift);
    Machine oracle(prog, secrets, warm, use_dift);

    // Prime-ish chunk sizes so boundaries never align with loop
    // bodies; 1-instruction chunks stress the entry/exit path itself.
    static const std::uint64_t kChunks[] = {1, 1, 2, 3, 7, 13, 97, 1009};
    std::size_t ci = 0;
    std::uint64_t ran = 0;
    while (ran < total && !fast.it.halted()) {
        const std::uint64_t chunk =
            std::min(total - ran, kChunks[ci % std::size(kChunks)]);
        ++ci;
        ran += fast.it.run(chunk);
    }

    while (oracle.it.instCount() < fast.it.instCount() &&
           !oracle.it.halted()) {
        oracle.it.step();
    }
    // An out-of-range/halting step after the last counted instruction
    // must also agree (run() takes it lazily via the sentinel op).
    if (fast.it.halted() && !oracle.it.halted())
        oracle.it.step();

    EXPECT_EQ(fast.it.instCount(), oracle.it.instCount()) << what;
    EXPECT_EQ(fast.it.halted(), oracle.it.halted()) << what;
    EXPECT_EQ(fast.it.pc(), oracle.it.pc()) << what;
    EXPECT_EQ(fast.it.faultCount(), oracle.it.faultCount()) << what;
    EXPECT_TRUE(fast.it.save() == oracle.it.save())
        << what << ": ArchState (incl. taint) diverged";
    EXPECT_TRUE(fast.snapshot() == oracle.snapshot())
        << what << ": machine snapshot (warming images) diverged";
    EXPECT_TRUE(fast.it.warmingWork() == oracle.it.warmingWork())
        << what << ": warming-work counters diverged";
}

// --------------------------------------------------------------------------
// Fuzzer corpus: every program shape, full attachments
// --------------------------------------------------------------------------

TEST(PredecodeLockstep, FuzzedProgramsFullyAttached)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        RandomProgramParams p;
        p.useMemory = (seed % 2) == 0;
        p.useIndirectCalls = (seed % 3) != 0;
        p.useFences = (seed % 2) == 1;
        p.useClflush = (seed % 4) == 0;
        p.useRdtsc = (seed % 4) == 1;
        p.callChainDepth = static_cast<unsigned>(seed % 5);
        const Program prog = generateRandomProgram(seed, p);
        expectLockstep(prog, 2'000'000, true, true,
                       ("fuzz seed " + std::to_string(seed)).c_str());
    }
}

// --------------------------------------------------------------------------
// Specialization matrix: all four runImpl instantiations
// --------------------------------------------------------------------------

TEST(PredecodeLockstep, AttachmentMatrix)
{
    const Program prog = generateRandomProgram(42, RandomProgramParams{});
    for (int mask = 0; mask < 4; ++mask) {
        const bool warm = (mask & 2) != 0;
        const bool use_dift = (mask & 1) != 0;
        expectLockstep(prog, 500'000, warm, use_dift,
                       ("attachment mask " + std::to_string(mask)).c_str());
    }
}

// --------------------------------------------------------------------------
// Workload programs (the actual fast-forward inputs)
// --------------------------------------------------------------------------

TEST(PredecodeLockstep, WorkloadPrograms)
{
    for (const char *name : {"hashjoin", "ptrchase", "branchy", "mixed"}) {
        const auto w = makeWorkload(name);
        ASSERT_NE(w, nullptr) << name;
        expectLockstep(w->build(7), 300'000, true, true, name);
    }
}

// --------------------------------------------------------------------------
// Edge semantics the threaded loop must preserve exactly
// --------------------------------------------------------------------------

TEST(PredecodeLockstep, RunOffEndIsLazyHalt)
{
    ProgramBuilder b("off-end");
    b.nop();
    b.nop();
    const Program prog = b.build();

    // step() oracle: the out-of-range "fetch" halts without charging
    // the budget or counting an instruction.
    Interpreter oracle(prog);
    EXPECT_EQ(oracle.step(), StepResult::kOk);
    EXPECT_EQ(oracle.step(), StepResult::kOk);
    EXPECT_EQ(oracle.step(), StepResult::kOutOfRange);

    Interpreter fast(prog);
    EXPECT_EQ(fast.run(100), 2u);
    EXPECT_TRUE(fast.halted());
    EXPECT_EQ(fast.pc(), oracle.pc());
    EXPECT_EQ(fast.instCount(), oracle.instCount());
    EXPECT_TRUE(fast.save() == oracle.save());
}

TEST(PredecodeLockstep, BudgetExpiresBeforeSentinel)
{
    // Budget runs out exactly at the last real instruction: run()
    // must NOT take the lazy halt — a later run() call does.
    ProgramBuilder b("exact");
    b.nop();
    b.nop();
    const Program prog = b.build();
    Interpreter it(prog);
    EXPECT_EQ(it.run(2), 2u);
    EXPECT_FALSE(it.halted());
    EXPECT_EQ(it.run(5), 0u);
    EXPECT_TRUE(it.halted());
}

TEST(PredecodeLockstep, FaultRedirectMatchesStep)
{
    // Faulting load with a registered handler: the threaded loop's
    // fault redirect must land exactly where step() lands.
    ProgramBuilder b("fault");
    b.segment(0x4000, {0x5A}, MemPerm::kKernel);
    b.movi(1, 0x4000);
    b.load(2, 1, 0, 1);              // faults: kernel page, user mode
    b.movi(3, 77);
    b.halt();
    auto handler = b.label();
    b.movi(4, 55);
    b.halt();
    b.faultHandlerAt(handler);
    const Program prog = b.build();

    expectLockstep(prog, 100, true, false, "fault redirect");

    Interpreter it(prog);
    it.run(100);
    EXPECT_TRUE(it.halted());
    EXPECT_EQ(it.faultCount(), 1u);
    EXPECT_EQ(it.reg(4), 55u);
    EXPECT_EQ(it.reg(3), 0u) << "fall-through path must be skipped";
}

TEST(PredecodeLockstep, PredecodeDirectBranchTargets)
{
    // Direct-branch targets are pre-resolved to op indices; an
    // out-of-program target must clamp to the halt sentinel.
    ProgramBuilder b("clamp");
    auto top = b.label();
    b.jmp(top);
    b.nop();
    Program prog = b.build();
    prog.code[0].imm = 5;            // retarget past the end
    const PredecodedProgram pre(prog);
    ASSERT_EQ(pre.size(), 2u);
    EXPECT_EQ(pre.ops()[0].targetIdx, pre.size())
        << "out-of-range target clamps to sentinel";
    EXPECT_EQ(pre.ops()[pre.size()].handler,
              PredecodedProgram::kOutOfRangeHandler);

    Interpreter it(prog);
    it.run(10);
    EXPECT_TRUE(it.halted());
    EXPECT_EQ(it.pc(), 5u) << "raw out-of-range pc preserved";
    EXPECT_EQ(it.instCount(), 1u);
}

// --------------------------------------------------------------------------
// MSR out-of-range regression (formerly shift UB / array OOB)
// --------------------------------------------------------------------------

/** Build a program whose MSR index is out of range (the builder
 *  rejects those, so patch the immediate in post). */
Program
msrProbeProgram(std::int64_t idx, bool write)
{
    ProgramBuilder b("msr-oob");
    b.movi(1, 0xABCD);
    if (write) {
        b.wrmsr(0, 1);
        b.rdmsr(2, 0);
    } else {
        b.movi(2, 0x5A5A);
        b.rdmsr(2, 0);
    }
    b.halt();
    Program prog = b.build();
    prog.code[write ? 1 : 2].imm = idx;   // the rdmsr/wrmsr op
    return prog;
}

TEST(MsrOutOfRange, InterpreterFaults)
{
    // idx 9: past kNumMsrRegs but inside the shift width (array OOB
    // before the fix). idx 40: past the shift width (UB before the
    // fix). Both must fault and leave rd untouched... and run() and
    // step() must agree on all of it.
    for (std::int64_t idx : {9, 40}) {
        for (bool write : {false, true}) {
            const Program prog = msrProbeProgram(idx, write);
            expectLockstep(prog, 100, true, true, "msr oob");

            Interpreter it(prog);
            it.run(100);
            EXPECT_TRUE(it.halted());
            EXPECT_EQ(it.faultCount(), 1u) << "idx " << idx;
            if (!write) {
                EXPECT_EQ(it.reg(2), 0x5A5Au)
                    << "faulting rdmsr must not write rd";
            } else {
                for (int m = 0; m < kNumMsrRegs; ++m)
                    EXPECT_EQ(it.msr(m), 0u) << "faulting wrmsr wrote msr";
            }
        }
    }
}

TEST(MsrOutOfRange, TimingCoresMatchInterpreter)
{
    // Both timing cores must produce the interpreter's architectural
    // outcome for out-of-range MSR indices. kOoo keeps the Meltdown
    // flaw enabled, so this also exercises the transient-forwarding
    // path that used to read msrs_[] and the taint table out of
    // bounds.
    for (std::int64_t idx : {9, 40}) {
        for (bool write : {false, true}) {
            const Program prog = msrProbeProgram(idx, write);
            Interpreter ref(prog);
            ref.run(1'000);
            ASSERT_TRUE(ref.halted());

            for (Profile p : {Profile::kOoo, Profile::kInOrder,
                              Profile::kFullProtection}) {
                auto core = makeCore(prog, makeProfile(p));
                core->run(~std::uint64_t{0}, 1'000'000);
                ASSERT_TRUE(core->halted()) << profileName(p);
                // Faulting instructions squash rather than commit, so
                // compare the architectural outcome and fault count
                // (the test_differential convention), not instCount.
                EXPECT_EQ(core->counters().faults, ref.faultCount())
                    << profileName(p) << " idx " << idx;
                for (RegId r = 0; r < kNumArchRegs; ++r) {
                    EXPECT_EQ(core->archReg(r), ref.reg(r))
                        << profileName(p) << " r" << int(r);
                }
            }
        }
    }
}

} // namespace
} // namespace nda
