/**
 * @file
 * Tests of the ArchState/SimSnapshot layer (core/arch_state.hh,
 * core/snapshot.hh): save -> restore must be invisible — a run resumed
 * from a mid-run snapshot must be bit-identical to the uninterrupted
 * run, for the architectural state, the DIFT taint travelling with
 * it, and the structural warming state (cache tags, predictor
 * tables). On top of that, the grid harness's shared checkpoints
 * must produce results exactly equal to the rebuild-per-window
 * reference (grid_reference.hh) while doing measurably less
 * functional work.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "branch/predictor_unit.hh"
#include "core/core_factory.hh"
#include "core/snapshot.hh"
#include "dift/secret_map.hh"
#include "dift/taint_engine.hh"
#include "grid_reference.hh"
#include "harness/profiles.hh"
#include "harness/runner.hh"
#include "isa/interpreter.hh"
#include "mem/hierarchy.hh"
#include "workloads/workload.hh"

namespace nda {
namespace {

// --------------------------------------------------------------------------
// Interpreter: resumed == uninterrupted, bit for bit
// --------------------------------------------------------------------------

TEST(ArchStateSnapshot, InterpreterResumeIsBitExact)
{
    const auto w = makeWorkload("hashjoin");
    ASSERT_NE(w, nullptr);
    const Program prog = w->build(7);
    ASSERT_FALSE(prog.data.empty());
    SecretMap secrets;
    secrets.addMemRange(prog.data.front().base, 64, "key");

    // Uninterrupted reference machine: interpreter + warming + DIFT.
    TaintEngine dift_a(secrets);
    Interpreter a(prog);
    MemHierarchy hier_a;
    PredictorUnit bp_a;
    a.attachWarming(hier_a, bp_a);
    a.attachDift(&dift_a);
    a.run(10'000);
    ASSERT_FALSE(a.halted());

    // Same machine interrupted at 4000 and snapshotted.
    TaintEngine dift_b(secrets);
    Interpreter b(prog);
    MemHierarchy hier_b;
    PredictorUnit bp_b;
    b.attachWarming(hier_b, bp_b);
    b.attachDift(&dift_b);
    b.run(4'000);
    const ArchState mid = b.save();
    const MemHierarchy::Snapshot mid_mem = hier_b.save();
    const PredictorUnit::Snapshot mid_bp = bp_b.save();
    EXPECT_TRUE(mid.hasTaint);
    EXPECT_FALSE(mid.memTaint.empty()) << "secret range seeds taint";

    // Entirely fresh machine resumed from the snapshot.
    TaintEngine dift_c(secrets);
    Interpreter c(prog);
    MemHierarchy hier_c;
    PredictorUnit bp_c;
    c.attachWarming(hier_c, bp_c);
    c.attachDift(&dift_c);
    c.restore(mid);
    hier_c.restore(mid_mem);
    bp_c.restore(mid_bp);
    EXPECT_EQ(c.instCount(), 4'000u);
    c.run(6'000);

    EXPECT_TRUE(c.save() == a.save())
        << "arch state (regs, mem, pc, taint) diverged after resume";
    EXPECT_TRUE(hier_c.save() == hier_a.save())
        << "cache tags/LRU diverged after resume";
    EXPECT_TRUE(bp_c.save() == bp_a.save())
        << "predictor tables diverged after resume";

    // A machine constructed in the snapshot, DIFT attached after: the
    // engine still takes the snapshot's taint, and the run matches
    // the cold-constructed, restored one.
    TaintEngine dift_d(secrets);
    Interpreter d(prog, mid);
    MemHierarchy hier_d;
    PredictorUnit bp_d;
    hier_d.restore(mid_mem);
    bp_d.restore(mid_bp);
    d.attachWarming(hier_d, bp_d);
    d.attachDift(&dift_d);
    EXPECT_TRUE(d.save() == mid);
    d.run(6'000);
    EXPECT_TRUE(d.save() == c.save())
        << "started-in-state interpreter diverged from cold + restore";
    EXPECT_TRUE(hier_d.save() == hier_c.save());
    EXPECT_TRUE(bp_d.save() == bp_c.save());
}

// --------------------------------------------------------------------------
// In-order core: restore round-trips and agrees with the interpreter
// --------------------------------------------------------------------------

TEST(ArchStateSnapshot, InOrderRestoreRoundTripsAndMatchesInterpreter)
{
    const auto w = makeWorkload("compute");
    const Program prog = w->build(3);
    const SimConfig cfg = makeProfile(Profile::kInOrder);
    const SimSnapshot ckpt = buildWarmCheckpoint(
        prog, cfg.memory, cfg.core.predictor, 8'000);
    ASSERT_TRUE(ckpt.hasMem);
    EXPECT_EQ(ckpt.arch.instCount, 8'000u);

    auto core = makeCore(prog, cfg);
    core->restoreCheckpoint(ckpt);

    // Re-saving immediately must reproduce the checkpoint exactly.
    SimSnapshot resaved;
    core->saveCheckpoint(resaved);
    EXPECT_TRUE(resaved.arch == ckpt.arch);
    EXPECT_TRUE(resaved.mem == ckpt.mem);

    // Constructed in the checkpoint: the same machine as cold
    // construction followed by restoreCheckpoint.
    auto started = makeCore(prog, cfg, &ckpt);
    SimSnapshot started_snap;
    started->saveCheckpoint(started_snap);
    EXPECT_TRUE(started_snap == resaved);

    core->run(5'000, ~Cycle{0});
    ASSERT_FALSE(core->halted());
    EXPECT_EQ(core->committedInsts(), 13'000u);
    started->run(5'000, ~Cycle{0});
    EXPECT_EQ(started->cycle(), core->cycle());
    SimSnapshot ran, started_ran;
    core->saveCheckpoint(ran);
    started->saveCheckpoint(started_ran);
    EXPECT_TRUE(started_ran == ran);

    // NDA changes only timing: the restored timing core must land on
    // the interpreter's architectural state at the same inst count.
    Interpreter ref(prog);
    ref.run(13'000);
    for (RegId r = 0; r < kNumArchRegs; ++r)
        EXPECT_EQ(core->archReg(r), ref.reg(r)) << "reg " << int(r);
    for (unsigned i = 0; i < kNumMsrRegs; ++i)
        EXPECT_EQ(core->msr(i), ref.msr(i)) << "msr " << i;
    EXPECT_TRUE(core->mem() == ref.mem());
}

TEST(ArchStateSnapshot, FaultCountSurvivesCounterReset)
{
    // 50 iterations of a faulting rdmsr whose handler resumes the
    // loop. ArchState::faultCount is a lifetime count: a measurement
    // window boundary (resetCounters) must not shorten it, on either
    // timing core, and a restore must carry it forward.
    ProgramBuilder b("faulty");
    b.initMsr(0, 42, true);
    b.movi(1, 0);
    b.movi(2, 50);
    auto loop = b.label();
    b.rdmsr(3, 0);
    auto handler = b.label();
    b.addi(1, 1, 1);
    b.blt(1, 2, loop);
    b.halt();
    b.faultHandlerAt(handler);
    const Program prog = b.build();

    Interpreter ref(prog);
    ref.run(1'000'000);
    ASSERT_TRUE(ref.halted());
    ASSERT_EQ(ref.faultCount(), 50u);

    for (const Profile profile : {Profile::kInOrder, Profile::kOoo}) {
        SCOPED_TRACE(profileName(profile));
        const SimConfig cfg = makeProfile(profile);
        auto core = makeCore(prog, cfg);
        core->run(60, ~Cycle{0});
        core->resetCounters();
        core->run(1'000'000, 10'000'000);
        ASSERT_TRUE(core->halted());
        SimSnapshot done;
        core->saveCheckpoint(done);
        EXPECT_EQ(done.arch.faultCount, ref.faultCount());

        auto fresh = makeCore(prog, cfg);
        fresh->restoreCheckpoint(done);
        SimSnapshot again;
        fresh->saveCheckpoint(again);
        EXPECT_EQ(again.arch.faultCount, ref.faultCount());
    }
}

// --------------------------------------------------------------------------
// OoO core: restore is deterministic and architecturally faithful
// --------------------------------------------------------------------------

TEST(ArchStateSnapshot, OooRestoreDeterministicAndMatchesInterpreter)
{
    const auto w = makeWorkload("branchy");
    const Program prog = w->build(5);
    const SimConfig cfg = makeProfile(Profile::kOoo);
    const SimSnapshot ckpt = buildWarmCheckpoint(
        prog, cfg.memory, cfg.core.predictor, 8'000);
    ASSERT_TRUE(ckpt.hasPredictor);

    auto c1 = makeCore(prog, cfg);
    auto c2 = makeCore(prog, cfg);
    c1->restoreCheckpoint(ckpt);
    c2->restoreCheckpoint(ckpt);
    c1->run(4'000, ~Cycle{0});
    c2->run(4'000, ~Cycle{0});

    EXPECT_EQ(c1->cycle(), c2->cycle());
    EXPECT_EQ(c1->committedInsts(), c2->committedInsts());
    EXPECT_EQ(c1->committedInsts(), 12'000u);

    SimSnapshot s1, s2;
    c1->saveCheckpoint(s1);
    c2->saveCheckpoint(s2);
    EXPECT_TRUE(s1.arch == s2.arch);
    EXPECT_TRUE(s1.mem == s2.mem) << "cache state diverged";
    EXPECT_TRUE(s1.predictor == s2.predictor)
        << "predictor state diverged";

    // A core constructed in the checkpoint is the same machine as one
    // constructed cold and then restored, before and after running.
    auto c3 = makeCore(prog, cfg, &ckpt);
    auto c4 = makeCore(prog, cfg);
    c4->restoreCheckpoint(ckpt);
    SimSnapshot s3, s4;
    c3->saveCheckpoint(s3);
    c4->saveCheckpoint(s4);
    EXPECT_TRUE(s3 == s4);
    c3->run(4'000, ~Cycle{0});
    EXPECT_EQ(c3->cycle(), c1->cycle());
    c3->saveCheckpoint(s3);
    EXPECT_TRUE(s3 == s1);

    // Committed register state agrees with the reference interpreter
    // at the same retirement count.
    Interpreter ref(prog);
    ref.run(c1->committedInsts());
    for (RegId r = 0; r < kNumArchRegs; ++r)
        EXPECT_EQ(c1->archReg(r), ref.reg(r)) << "reg " << int(r);
}

TEST(ArchStateSnapshot, StructuralCompatibilityGatesGeometryOnly)
{
    const auto w = makeWorkload("crc");
    const Program prog = w->build(1);
    const SimConfig cfg = makeProfile(Profile::kOoo);
    const SimSnapshot ckpt = buildWarmCheckpoint(
        prog, cfg.memory, cfg.core.predictor, 1'000);

    EXPECT_TRUE(ckpt.structurallyCompatible(cfg));

    // Latency changes do not affect warming state: still compatible.
    SimConfig slower = cfg;
    slower.memory.l2.hitLatency = 77;
    slower.memory.dramLatency = 300;
    EXPECT_TRUE(ckpt.structurallyCompatible(slower));

    SimConfig small_l1d = cfg;
    small_l1d.memory.l1d.sizeBytes /= 2;
    EXPECT_FALSE(ckpt.structurallyCompatible(small_l1d));

    SimConfig small_btb = cfg;
    small_btb.core.predictor.btb.entries = 1024;
    EXPECT_FALSE(ckpt.structurallyCompatible(small_btb));
}

// --------------------------------------------------------------------------
// Grid harness: shared checkpoints == per-window rebuilds, with less
// functional work
// --------------------------------------------------------------------------

void
expectIdentical(const RunResult &a, const RunResult &b)
{
    // Exact equality on doubles is intentional: the contract is
    // bit-identical output, not merely close.
    EXPECT_EQ(a.mean.cpi, b.mean.cpi);
    EXPECT_EQ(a.mean.mlp, b.mean.mlp);
    EXPECT_EQ(a.mean.ilp, b.mean.ilp);
    EXPECT_EQ(a.mean.condMispredictRate, b.mean.condMispredictRate);
    EXPECT_EQ(a.mean.instructions, b.mean.instructions);
    EXPECT_EQ(a.mean.cycles, b.mean.cycles);
    EXPECT_EQ(a.cpiCi95, b.cpiCi95);
    EXPECT_EQ(a.cpiSamples, b.cpiSamples);
}

SampleParams
gridParams()
{
    SampleParams sp;
    sp.fastforwardInsts = 20'000;
    sp.warmupInsts = 1'000;
    sp.measureInsts = 2'000;
    sp.samples = 2;
    sp.baseSeed = 11;
    sp.jobs = 2;
    return sp;
}

TEST(CheckpointReuse, GridEqualsLegacyAndDoesLessWork)
{
    std::vector<std::unique_ptr<Workload>> ws;
    ws.push_back(makeWorkload("crc"));
    ws.push_back(makeWorkload("stream"));

    // Include a config whose cache geometry differs from the shared
    // checkpoint's: it must fall back to a per-window fast-forward
    // and still be bit-identical between the two modes.
    SimConfig small = makeProfile(Profile::kOoo);
    small.name = "small-l1d";
    small.memory.l1d.sizeBytes = 16 * 1024;
    const std::vector<SimConfig> configs{
        makeProfile(Profile::kOoo),
        makeProfile(Profile::kFullProtection),
        makeProfile(Profile::kInOrder), small};

    const SampleParams reuse = gridParams();

    GridStats reuse_stats, legacy_stats;
    const auto a = runGrid(ws, configs, reuse, nullptr, &reuse_stats);
    const auto b = perWindowGrid(ws, configs, reuse, &legacy_stats);

    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        expectIdentical(a[i], b[i]);

    const std::uint64_t w_s = ws.size() * reuse.samples;       // 4
    const std::uint64_t windows = w_s * configs.size();        // 16
    EXPECT_EQ(reuse_stats.windows, windows);
    EXPECT_EQ(legacy_stats.windows, windows);
    EXPECT_EQ(reuse_stats.checkpointRestores, windows);
    EXPECT_EQ(legacy_stats.checkpointRestores, windows);

    // runGrid: one shared fast-forward per (workload, sample), plus a
    // per-window fallback for the one incompatible config. The
    // reference: one per window.
    EXPECT_EQ(reuse_stats.ffRuns, w_s + w_s);
    EXPECT_EQ(legacy_stats.ffRuns, windows);
    EXPECT_LT(reuse_stats.ffInsts, legacy_stats.ffInsts);
    EXPECT_EQ(reuse_stats.measuredInsts,
              windows * reuse.measureInsts);
}

TEST(CheckpointReuse, GridIsJobsInvariantWithFastForward)
{
    std::vector<std::unique_ptr<Workload>> ws;
    ws.push_back(makeWorkload("ptrchase"));
    const std::vector<SimConfig> configs{
        makeProfile(Profile::kOoo), makeProfile(Profile::kStrict)};

    SampleParams serial = gridParams();
    serial.jobs = 1;
    SampleParams parallel = gridParams();
    parallel.jobs = 8;

    const auto a = runGrid(ws, configs, serial);
    const auto b = runGrid(ws, configs, parallel);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        expectIdentical(a[i], b[i]);
}

// --------------------------------------------------------------------------
// Non-blocking (MSHR) hierarchy: mid-miss saves
// --------------------------------------------------------------------------

/** Tick until at least one MSHR fill is in flight; false if the core
 *  halts or the budget runs out first. */
bool
tickToPendingMiss(CoreBase &core, Cycle limit)
{
    while (core.cycle() < limit && !core.halted()) {
        core.tick();
        if (!core.hierarchy().mshrDrained())
            return true;
    }
    return false;
}

TEST(MshrSnapshot, OooMidMissSaveRoundTripsBitExact)
{
    // A checkpoint taken with fills in flight drains them into the
    // captured image (the state the machine converges to), so
    // save -> restore -> save must be a fixed point and the snapshot
    // must carry no MSHR residue a legacy consumer could trip over.
    const auto w = makeWorkload("stream");
    const Program prog = w->build(3);
    SimConfig cfg = makeProfile(Profile::kOoo);
    cfg.memory.mshrEntries = 4;

    auto core = makeCore(prog, cfg);
    ASSERT_TRUE(tickToPendingMiss(*core, 100'000))
        << "stream never left a miss in flight";
    SimSnapshot mid;
    core->saveCheckpoint(mid);

    auto fresh = makeCore(prog, cfg);
    fresh->restoreCheckpoint(mid);
    SimSnapshot again;
    fresh->saveCheckpoint(again);
    EXPECT_TRUE(again == mid)
        << "mid-miss save -> restore -> save is not a fixed point";
}

TEST(MshrSnapshot, InOrderMidStallSaveRoundTripsBitExact)
{
    const auto w = makeWorkload("stream");
    const Program prog = w->build(3);
    SimConfig cfg = makeProfile(Profile::kInOrder);
    cfg.memory.mshrEntries = 1;

    auto core = makeCore(prog, cfg);
    ASSERT_TRUE(tickToPendingMiss(*core, 100'000))
        << "the blocking core never stalled on a miss";
    SimSnapshot mid;
    core->saveCheckpoint(mid);

    auto fresh = makeCore(prog, cfg);
    fresh->restoreCheckpoint(mid);
    SimSnapshot again;
    fresh->saveCheckpoint(again);
    EXPECT_TRUE(again == mid);
}

TEST(MshrCheckpointReuse, GridWithMshrEqualsLegacy)
{
    // Checkpoint sharing must be oblivious to the MSHR knob: shared
    // and rebuild-per-window grids stay bit-identical with
    // non-blocking caches on.
    std::vector<std::unique_ptr<Workload>> ws;
    ws.push_back(makeWorkload("crc"));
    ws.push_back(makeWorkload("stream"));
    std::vector<SimConfig> configs{makeProfile(Profile::kOoo),
                                   makeProfile(Profile::kStrict)};
    for (SimConfig &cfg : configs)
        cfg.memory.mshrEntries = 4;

    const auto a = runGrid(ws, configs, gridParams());
    const auto b = perWindowGrid(ws, configs, gridParams());
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        expectIdentical(a[i], b[i]);
}

// --------------------------------------------------------------------------
// SampleParams validation
// --------------------------------------------------------------------------

TEST(SampleParamsDeathTest, RejectsZeroSamples)
{
    SampleParams sp;
    sp.samples = 0;
    EXPECT_DEATH(sp.validate(), "samples");
}

TEST(SampleParamsDeathTest, RejectsEmptyMeasuredWindow)
{
    SampleParams sp;
    sp.measureInsts = 0;
    EXPECT_DEATH(sp.validate(), "measureInsts");
}

// --------------------------------------------------------------------------
// Component snapshots
// --------------------------------------------------------------------------

TEST(ComponentSnapshots, HierarchyRoundTrip)
{
    MemHierarchy h;
    for (Addr a = 0; a < 300; ++a)
        h.dataAccess(a * kLineSize);
    const MemHierarchy::Snapshot snap = h.save();

    h.dataAccess(9'999 * kLineSize);
    EXPECT_FALSE(h.save() == snap);

    h.restore(snap);
    EXPECT_TRUE(h.save() == snap);
}

TEST(ComponentSnapshots, PredictorRoundTrip)
{
    PredictorUnit bp;
    for (Addr pc = 0; pc < 200; ++pc) {
        bp.direction().predict(pc);
        bp.direction().update(pc, pc % 3 == 0, 0);
        bp.btbUpdate(pc, pc + 17);
        if (pc % 5 == 0)
            bp.ras().push(pc + 1);
    }
    const PredictorUnit::Snapshot snap = bp.save();

    bp.btbUpdate(4'321, 1);
    bp.direction().predict(50);
    bp.ras().pop();
    EXPECT_FALSE(bp.save() == snap);

    bp.restore(snap);
    EXPECT_TRUE(bp.save() == snap);
}

TEST(ComponentSnapshots, MemoryMapEquality)
{
    MemoryMap m1, m2;
    m1.write(0x1000, 42, 8);
    m2.write(0x1000, 42, 8);
    EXPECT_TRUE(m1 == m2);
    m2.write(0x1000, 43, 8);
    EXPECT_FALSE(m1 == m2);
}

TEST(ComponentSnapshotsDeathTest, GeometryMismatchPanics)
{
    MemHierarchy big;
    const MemHierarchy::Snapshot snap = big.save();
    HierarchyParams small_params;
    small_params.l1d.sizeBytes = 16 * 1024;
    MemHierarchy small(small_params);
    EXPECT_DEATH(small.restore(snap), "geometry");
}

} // namespace
} // namespace nda
