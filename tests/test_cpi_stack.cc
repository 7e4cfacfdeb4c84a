/**
 * @file
 * Tests of the causal CPI stack (PerfCounters::slots) and the per-PC
 * hotspot table (obs/hotspot_profiler.hh) in the cores and the
 * harness: the exact slot-decomposition identity on every profile x
 * workload, the NDA defer-bucket causality, the SMT dispatch-share
 * cause, detached neutrality (the hotspot table never perturbs the
 * simulation), Fig 9a's classes as the grouped cause, hotspot
 * ranking/rendering, and the exhaustiveness of the cause-name tables.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/core_factory.hh"
#include "core/ooo_core.hh"
#include "core/perf_counters.hh"
#include "harness/profiles.hh"
#include "harness/runner.hh"
#include "obs/hotspot_profiler.hh"
#include "obs/stats_registry.hh"
#include "workloads/workload.hh"

namespace nda {
namespace {

// ---------------------------------------------------------------------
// Cause-name tables: exhaustive, distinct, never the "?" fallback
// ---------------------------------------------------------------------

TEST(StallCauseNames, ExhaustiveAndDistinct)
{
    std::set<std::string> display;
    std::set<std::string> stat;
    for (int c = 0; c < kNumStallCauses; ++c) {
        const auto cause = static_cast<StallCause>(c);
        const char *d = stallCauseName(cause);
        const char *s = stallCauseStatName(cause);
        ASSERT_NE(d, nullptr);
        ASSERT_NE(s, nullptr);
        EXPECT_STRNE(d, "?") << "display name missing for cause " << c;
        EXPECT_STRNE(s, "?") << "stat name missing for cause " << c;
        EXPECT_TRUE(display.insert(d).second)
            << "duplicate display name '" << d << "'";
        EXPECT_TRUE(stat.insert(s).second)
            << "duplicate stat name '" << s << "'";
        // Stat names are schema leaves: snake_case only.
        for (const char *p = s; *p; ++p)
            EXPECT_TRUE((*p >= 'a' && *p <= 'z') || *p == '_')
                << "stat name '" << s << "' is not snake_case";
    }
    EXPECT_EQ(display.size(), static_cast<std::size_t>(kNumStallCauses));
    // The NDA split by producer class is the paper's policy axis.
    EXPECT_EQ(display.count("nda-defer-load"), 1u);
    EXPECT_EQ(display.count("nda-defer-alu"), 1u);
    EXPECT_EQ(display.count("nda-defer-control"), 1u);
}

TEST(SquashCauseNames, ExhaustiveAndDistinct)
{
    std::set<std::string> names;
    const int n = static_cast<int>(SquashCause::kNumCauses);
    for (int c = 0; c < n; ++c) {
        const char *name = squashCauseName(static_cast<SquashCause>(c));
        ASSERT_NE(name, nullptr);
        EXPECT_STRNE(name, "?") << "name missing for squash cause " << c;
        EXPECT_TRUE(names.insert(name).second)
            << "duplicate squash cause name '" << name << "'";
    }
    EXPECT_EQ(names.size(), static_cast<std::size_t>(n));
    // Every squash cause has a slot bucket in the CPI stack (kNone is
    // the no-squash sentinel, not a slot cause).
    EXPECT_EQ(names.count("branch-mispredict"), 1u);
    EXPECT_EQ(names.count("mem-order-violation"), 1u);
    EXPECT_EQ(names.count("fault"), 1u);
    EXPECT_EQ(names.count("serialize"), 1u);
}

// ---------------------------------------------------------------------
// Slot counters
// ---------------------------------------------------------------------

TEST(CpiStackCounters, SlotAccountingAndIdentity)
{
    PerfCounters pc;
    EXPECT_EQ(pc.accountedSlots(), 0u);

    // Two cycles of a width-4 core.
    pc.cycles = 2;
    pc.slots[static_cast<int>(StallCause::kCommit)] += 2;
    pc.slots[static_cast<int>(StallCause::kNdaDeferLoad)] += 1;
    pc.slots[static_cast<int>(StallCause::kFrontend)] += 1;
    pc.slots[static_cast<int>(StallCause::kMemLatency)] += 4;
    EXPECT_EQ(pc.accountedSlots(), 4u * pc.cycles);

    pc.reset();
    EXPECT_EQ(pc.cycles, 0u);
    EXPECT_EQ(pc.accountedSlots(), 0u);
}

TEST(CpiStackCounters, RegisterStatsSchema)
{
    PerfCounters pc;
    StatsRegistry reg;
    pc.registerCpiStack(reg, "core.cpi_stack", 8);
    const std::vector<std::string> names = reg.names();
    // width, cycles, total_slots, unaccounted + one slot counter per
    // cause.
    EXPECT_EQ(names.size(),
              4u + static_cast<std::size_t>(kNumStallCauses));
    const std::set<std::string> set(names.begin(), names.end());
    EXPECT_EQ(set.count("core.cpi_stack.width"), 1u);
    EXPECT_EQ(set.count("core.cpi_stack.unaccounted"), 1u);
    for (int c = 0; c < kNumStallCauses; ++c) {
        const std::string leaf =
            stallCauseStatName(static_cast<StallCause>(c));
        EXPECT_EQ(set.count("core.cpi_stack.slots." + leaf), 1u)
            << "missing slot counter for '" << leaf << "'";
    }

    // The formulas read the counters they are bound to.
    pc.cycles = 3;
    pc.slots[static_cast<int>(StallCause::kCommit)] = 20;
    std::map<std::string, double> formulas;
    for (const StatsRegistry::Stat &st : reg.stats()) {
        if (st.kind == StatsRegistry::Kind::kFormula)
            formulas[st.name] = st.formula();
    }
    EXPECT_EQ(formulas["core.cpi_stack.width"], 8.0);
    EXPECT_EQ(formulas["core.cpi_stack.total_slots"], 24.0);
    EXPECT_EQ(formulas["core.cpi_stack.unaccounted"], 4.0);
}

TEST(HotspotProfiler, RankingAndMerge)
{
    HotspotProfiler hp;
    hp.record(0x30, StallCause::kMemLatency, 10);
    hp.record(0x10, StallCause::kNdaDeferLoad, 10);
    hp.record(0x20, StallCause::kCommit, 100); // productive, not lost
    hp.record(0x20, StallCause::kFrontend, 3);

    const auto top = hp.topN(8);
    ASSERT_EQ(top.size(), 3u);
    // 0x10 and 0x30 tie on lost slots: PC ascending breaks the tie.
    EXPECT_EQ(top[0].pc, 0x10u);
    EXPECT_EQ(top[1].pc, 0x30u);
    EXPECT_EQ(top[2].pc, 0x20u);
    EXPECT_EQ(top[2].lostSlots(), 3u);
    EXPECT_EQ(top[2].totalSlots(), 103u);
    EXPECT_EQ(hp.topN(1).size(), 1u);

    HotspotProfiler other;
    other.record(0x30, StallCause::kMemLatency, 5);
    other.record(0x40, StallCause::kIqFull, 1);
    hp.merge(other);
    const auto merged = hp.topN(8);
    ASSERT_EQ(merged.size(), 4u);
    EXPECT_EQ(merged[0].pc, 0x30u);
    EXPECT_EQ(merged[0].lostSlots(), 15u);

    // mergeEntry round-trips a ranked entry (cross-window reduce).
    HotspotProfiler folded;
    for (const HotspotEntry &e : merged)
        folded.mergeEntry(e);
    EXPECT_EQ(folded.topN(8), merged);
}

TEST(HotspotProfiler, CollapsedRenderDeterministic)
{
    HotspotProfiler hp;
    hp.record(0x2a, StallCause::kNdaDeferLoad, 123);
    hp.record(0x2a, StallCause::kCommit, 7);
    hp.record(0x05, StallCause::kMemLatency, 9);

    const std::string folded = hp.renderCollapsed("mixed;Strict");
    EXPECT_NE(folded.find("mixed;Strict;pc_0x5;mem-latency 9\n"),
              std::string::npos);
    EXPECT_NE(folded.find("mixed;Strict;pc_0x2a;nda-defer-load 123\n"),
              std::string::npos);
    // Deterministic: same table renders byte-identically.
    EXPECT_EQ(folded, hp.renderCollapsed("mixed;Strict"));
    // Sorted by pc: 0x5 precedes 0x2a.
    EXPECT_LT(folded.find("pc_0x5;"), folded.find("pc_0x2a;"));
}

// ---------------------------------------------------------------------
// Core integration: the slot identity, causality, and neutrality
// ---------------------------------------------------------------------

WindowStats
profiledWindow(const char *workload_name, Profile profile,
               bool hotspots = false)
{
    const auto workload = makeWorkload(workload_name);
    SampleParams p;
    p.warmupInsts = 1000;
    p.measureInsts = 4000;
    p.samples = 1;
    p.hotspots = hotspots;
    return runWindow(*workload, makeProfile(profile), 1, p);
}

std::uint64_t
accounted(const WindowStats &w)
{
    std::uint64_t sum = 0;
    for (const std::uint64_t s : w.slotStack)
        sum += s;
    return sum;
}

TEST(CpiStackIdentity, ExactAcrossProfilesAndWorkloads)
{
    // A small grid smoke over the interesting mechanism space: the
    // insecure baseline, taint propagation, the two restriction
    // mechanisms, InvisiSpec, and the in-order lower bound.
    const Profile profiles[] = {
        Profile::kOoo,        Profile::kStrict,
        Profile::kStrictBr,   Profile::kRestrictedLoads,
        Profile::kFullProtection, Profile::kInvisiSpecFuture,
        Profile::kInOrder,
    };
    const char *workloads[] = {"ptrchase", "branchy", "mixed"};
    for (const Profile p : profiles) {
        for (const char *wl : workloads) {
            const WindowStats w = profiledWindow(wl, p);
            ASSERT_GT(w.slotWidth, 0u);
            ASSERT_GT(w.cycles, 0u);
            EXPECT_EQ(accounted(w),
                      static_cast<std::uint64_t>(w.slotWidth) *
                          w.cycles)
                << "slot identity broken on " << wl << " x "
                << profileName(p);
        }
    }
}

TEST(CpiStackIdentity, SurvivesAggregation)
{
    // aggregateWindows sums slot stacks and cycles, so the identity
    // must hold on the reduced cell exactly as on each window.
    const auto workload = makeWorkload("hashjoin");
    SampleParams p;
    p.warmupInsts = 1000;
    p.measureInsts = 3000;
    p.samples = 3;
    p.hotspots = true;
    const RunResult r =
        runSampled(*workload, makeProfile(Profile::kStrict), p);
    EXPECT_EQ(accounted(r.mean),
              static_cast<std::uint64_t>(r.mean.slotWidth) *
                  r.mean.cycles);
    EXPECT_FALSE(r.mean.hotspots.empty());
    EXPECT_LE(r.mean.hotspots.size(), kHotspotTopN);
}

TEST(CpiStackIdentity, HoldsPerThreadAndPooledUnderSmt)
{
    // With two hardware threads the pooled stack must still close the
    // width x cycles identity: slots either thread retired are commit
    // slots, and lost slots go to the rotation's priority thread.
    ProgramBuilder b("smt-cpi");
    b.zeroSegment(0x1000, 64);
    b.movi(1, 0);
    b.movi(2, 0);
    auto loop = b.label();
    b.addi(2, 2, 1);
    b.add(1, 1, 2);
    b.movi(3, 0x1000);
    b.load(4, 3, 0, 8);   // shared-line traffic between the contexts
    b.add(1, 1, 4);
    b.movi(3, 2000);
    b.blt(2, 3, loop);
    b.halt();
    const Program prog = b.build(); // homogeneous co-run

    SimConfig cfg;
    cfg.core.smtThreads = 2;
    OooCore core(prog, cfg);
    core.run(~std::uint64_t{0}, 400'000);
    ASSERT_TRUE(core.halted());

    const PerfCounters &pooled = core.counters();
    EXPECT_EQ(pooled.cycles, core.cycle());
    EXPECT_EQ(pooled.accountedSlots(),
              static_cast<std::uint64_t>(core.slotWidth()) * pooled.cycles);
    EXPECT_EQ(pooled.slots[static_cast<int>(StallCause::kCommit)],
              core.committedInsts());
}

TEST(CpiStackSmt, SkippedThreadChargesDispatchShare)
{
    // With one dispatch slot per cycle, the thread first in rotation
    // takes it and dispatch never reaches the other: its empty ROB
    // slots are the co-runner's doing, charged to dispatch_share (a
    // backend-class cause), not to whatever blocked it cycles ago. A
    // single thread is never skipped.
    ProgramBuilder b("smt-share");
    b.movi(1, 0);
    b.movi(2, 0);
    auto loop = b.label();
    b.addi(2, 2, 1);
    b.add(1, 1, 2);
    b.movi(3, 3000);
    b.blt(2, 3, loop);
    b.halt();
    const Program prog = b.build();

    const auto slots_of = [](const PerfCounters &pc, StallCause c) {
        return pc.slots[static_cast<int>(c)];
    };
    for (const unsigned threads : {1u, 2u}) {
        SimConfig cfg;
        cfg.core.smtThreads = threads;
        cfg.core.dispatchWidth = 1;
        OooCore core(prog, cfg);
        core.run(~std::uint64_t{0}, 400'000);
        ASSERT_TRUE(core.halted());
        const PerfCounters &pc = core.counters();
        EXPECT_EQ(pc.accountedSlots(),
                  static_cast<std::uint64_t>(core.slotWidth()) * pc.cycles);
        if (threads == 1) {
            EXPECT_EQ(slots_of(pc, StallCause::kDispatchShare), 0u);
        } else {
            EXPECT_GT(slots_of(pc, StallCause::kDispatchShare), 0u);
        }
    }
    EXPECT_EQ(cycleClassOf(StallCause::kDispatchShare),
              CycleClass::kBackendStall);
}

TEST(CpiStackCausality, DeferBucketsTrackLoadRestriction)
{
    // The paper's load-restriction signature: deferred tag broadcast
    // of load producers. The bucket must light up under Restricted
    // Loads and stay dark on the insecure baseline.
    const WindowStats base =
        profiledWindow("ptrchase", Profile::kOoo, true);
    const WindowStats lr =
        profiledWindow("ptrchase", Profile::kRestrictedLoads, true);

    const auto defer_load =
        static_cast<int>(StallCause::kNdaDeferLoad);
    EXPECT_EQ(base.slotStack[defer_load], 0u);
    EXPECT_EQ(base.slotStack[static_cast<int>(
                  StallCause::kNdaDeferAlu)],
              0u);
    EXPECT_EQ(base.slotStack[static_cast<int>(
                  StallCause::kNdaDeferControl)],
              0u);
    EXPECT_GT(lr.slotStack[defer_load], 0u)
        << "load restriction produced no nda-defer-load slots";

    // And the hotspot table must carry the same signal: some PC loses
    // slots to the defer bucket.
    std::uint64_t hotspot_defer = 0;
    for (const HotspotEntry &e : lr.hotspots)
        hotspot_defer += e.slots[defer_load];
    EXPECT_GT(hotspot_defer, 0u);
}

TEST(CpiStackDelta, ExplainsNdaOverheadExactly)
{
    // The acceptance bar: the NDA-vs-baseline CPI delta decomposes
    // term by term with no unaccounted residue. With the identity
    // exact on both sides, the per-cause contribution deltas must sum
    // to the CPI delta up to float rounding only (<< 1%).
    const WindowStats base = profiledWindow("ptrchase", Profile::kOoo);
    const WindowStats nda =
        profiledWindow("ptrchase", Profile::kFullProtection);
    ASSERT_GT(base.instructions, 0u);
    ASSERT_GT(nda.instructions, 0u);

    const auto contrib = [](const WindowStats &w, int c) {
        return static_cast<double>(w.slotStack[c]) /
               (static_cast<double>(w.slotWidth) *
                static_cast<double>(w.instructions));
    };
    double delta_sum = 0.0;
    for (int c = 0; c < kNumStallCauses; ++c)
        delta_sum += contrib(nda, c) - contrib(base, c);
    const double cpi_delta = nda.cpi - base.cpi;
    EXPECT_GT(cpi_delta, 0.0)
        << "full protection should cost CPI on pointer chasing";
    EXPECT_NEAR(delta_sum, cpi_delta, 1e-9 + 0.001 * cpi_delta);
}

TEST(CpiStackNeutrality, DetachedRunIsBitIdentical)
{
    // The hotspot table must be a pure observer: the same window with
    // and without it retires the same instructions in the same number
    // of cycles and charges the same slot stack (KIPS aside, simulated
    // results are identical).
    for (const Profile p :
         {Profile::kOoo, Profile::kFullProtection, Profile::kInOrder}) {
        const WindowStats with = profiledWindow("mixed", p, true);
        const WindowStats without = profiledWindow("mixed", p, false);
        EXPECT_EQ(with.cycles, without.cycles) << profileName(p);
        EXPECT_EQ(with.instructions, without.instructions)
            << profileName(p);
        EXPECT_DOUBLE_EQ(with.cpi, without.cpi) << profileName(p);
        EXPECT_EQ(with.slotWidth, without.slotWidth) << profileName(p);
        EXPECT_EQ(with.slotStack, without.slotStack) << profileName(p);
        // Only the attached window carries hotspots.
        EXPECT_FALSE(with.hotspots.empty()) << profileName(p);
        EXPECT_TRUE(without.hotspots.empty()) << profileName(p);
    }
}

TEST(CpiStackInOrder, WidthOneIdentity)
{
    const WindowStats w = profiledWindow("stream", Profile::kInOrder);
    EXPECT_EQ(w.slotWidth, 1u);
    EXPECT_EQ(accounted(w), w.cycles);
    // The blocking core commits exactly one instruction per kCommit
    // slot.
    EXPECT_EQ(w.slotStack[static_cast<int>(StallCause::kCommit)],
              w.instructions);
    // No speculation: every squash/NDA/capacity bucket stays empty.
    for (const StallCause c :
         {StallCause::kSquashBranch, StallCause::kSquashMemOrder,
          StallCause::kNdaDeferLoad, StallCause::kNdaDeferAlu,
          StallCause::kNdaDeferControl, StallCause::kIqFull,
          StallCause::kLsqFull, StallCause::kRobFull}) {
        EXPECT_EQ(w.slotStack[static_cast<int>(c)], 0u)
            << stallCauseName(c);
    }
}

TEST(CpiStackCycleClass, EachClassIsItsCausesSlotsAtWidthOne)
{
    // Fig 9a's class of a cycle is the group of the cause its lost
    // slots are charged to. At commit width 1 a cycle is one slot, so
    // each cycle_class count must equal the slots of its causes,
    // exactly, on every profile and both cores.
    for (const Profile p : allProfiles()) {
        for (const char *wl : {"ptrchase", "branchy", "mixed"}) {
            SimConfig cfg = makeProfile(p);
            cfg.core.commitWidth = 1;
            const auto core = makeCore(makeWorkload(wl)->build(1), cfg);
            ASSERT_EQ(core->run(1000), StopReason::kTarget);
            core->resetCounters();
            ASSERT_EQ(core->run(4000), StopReason::kTarget);

            const PerfCounters &pc = core->counters();
            constexpr int kClasses =
                static_cast<int>(CycleClass::kNumClasses);
            std::uint64_t grouped[kClasses] = {};
            for (int c = 0; c < kNumStallCauses; ++c) {
                const auto cause = static_cast<StallCause>(c);
                grouped[static_cast<int>(cycleClassOf(cause))] +=
                    pc.slots[c];
            }
            EXPECT_EQ(pc.accountedSlots(), pc.cycles);
            for (int k = 0; k < kClasses; ++k) {
                EXPECT_EQ(pc.cycleClass[k], grouped[k])
                    << wl << " x " << profileName(p) << ", class " << k;
            }
        }
    }
}

TEST(CpiStackSquash, BranchyWorkloadChargesSquashSlots)
{
    // The speculative OoO core mispredicts on branchy: refetch slots
    // must attribute to the squash-branch bucket.
    const WindowStats w = profiledWindow("branchy", Profile::kOoo);
    EXPECT_GT(
        w.slotStack[static_cast<int>(StallCause::kSquashBranch)], 0u);
}

} // namespace
} // namespace nda
