#include "core/perf_counters.hh"

#include "obs/stats_registry.hh"

namespace nda {

const char *
squashCauseName(SquashCause c)
{
    switch (c) {
      case SquashCause::kNone: return "none";
      case SquashCause::kBranchMispredict: return "branch-mispredict";
      case SquashCause::kMemOrderViolation: return "mem-order-violation";
      case SquashCause::kFault: return "fault";
      case SquashCause::kSerialize: return "serialize";
      default: return "?";
    }
}

void
PerfCounters::registerStats(StatsRegistry &reg,
                            const std::string &prefix) const
{
    const StatsRegistry::Group g = reg.group(prefix);

    g.counter("cycles", &cycles, "simulated cycles in the window");
    g.counter("committed_insts", &committedInsts,
              "architecturally retired instructions");
    g.formula("cpi", [this] { return cpi(); },
              "cycles per committed instruction");
    g.formula("ipc", [this] { return ipc(); },
              "committed instructions per cycle");

    const StatsRegistry::Group cyc = g.group("cycle_class");
    cyc.counter("commit",
                &cycleClass[static_cast<int>(CycleClass::kCommit)],
                "cycles retiring >=1 instruction, or idle at a window "
                "edge (Fig 9a)");
    cyc.counter("mem_stall",
                &cycleClass[static_cast<int>(CycleClass::kMemoryStall)],
                "stall cycles charged to mem_latency or mshr_full");
    cyc.counter(
        "backend_stall",
        &cycleClass[static_cast<int>(CycleClass::kBackendStall)],
        "stall cycles charged to NDA deferral, execution, issue or "
        "dispatch capacity");
    cyc.counter(
        "frontend_stall",
        &cycleClass[static_cast<int>(CycleClass::kFrontendStall)],
        "stall cycles charged to the frontend or a squash refetch");

    const StatsRegistry::Group br = g.group("branch");
    br.counter("cond", &condBranches, "committed conditional branches");
    br.counter("cond_mispredicts", &condMispredicts,
               "committed mispredicted conditional branches");
    br.formula("cond_mispredict_rate",
               [this] { return condMispredictRate(); },
               "conditional mispredicts / conditional branches");
    br.counter("indirect", &indirectBranches,
               "committed indirect branches");
    br.counter("indirect_mispredicts", &indirectMispredicts,
               "committed mispredicted indirect branches");

    const StatsRegistry::Group sq = g.group("squash");
    sq.counter("total", &squashes, "pipeline flushes (excl. SS8)");
    sq.counter("mem_order_violations", &memOrderViolations,
               "flushes from load/store order violations");
    sq.counter("branch_mispredict",
               &squashCause[static_cast<int>(
                   SquashCause::kBranchMispredict)],
               "flushes attributed to branch mispredicts");
    sq.counter("mem_order",
               &squashCause[static_cast<int>(
                   SquashCause::kMemOrderViolation)],
               "flushes attributed to memory-order violations");
    sq.counter("fault",
               &squashCause[static_cast<int>(SquashCause::kFault)],
               "flushes attributed to trap delivery");
    sq.counter("serialize",
               &squashCause[static_cast<int>(SquashCause::kSerialize)],
               "specon/specoff serializing refetches");
    g.counter("faults", &faults, "architecturally delivered faults");

    const StatsRegistry::Group mem = g.group("mem");
    mem.counter("loads", &loads, "committed loads");
    mem.counter("stores", &stores, "committed stores");
    mem.counter("mlp_cycles", &mlpCycles,
                "cycles with >=1 outstanding off-chip miss");
    mem.counter("mlp_accum", &mlpAccum,
                "sum of outstanding off-chip misses over mlp_cycles");
    mem.formula("mlp", [this] { return mlp(); },
                "memory-level parallelism (Chou et al., Fig 9b)");
    g.counter("ilp_cycles", &ilpCycles, "cycles with >=1 completion");
    g.counter("ilp_accum", &ilpAccum,
              "sum of completions over ilp_cycles");
    g.formula("ilp", [this] { return ilp(); },
              "instruction-level parallelism (Fig 9c)");

    const StatsRegistry::Group ndag = g.group("nda");
    ndag.counter("deferred_broadcasts", &deferredBroadcasts,
                 "tag broadcasts NDA deferred (unsafe at completion)");
    ndag.counter("unsafe_marked", &unsafeMarked,
                 "instructions marked unsafe at dispatch");
    ndag.histogram("deferred_delay", &deferredBroadcastDelay,
                   "complete-to-broadcast gap of deferred producers");
    ndag.histogram("unsafe_residency", &unsafeResidency,
                   "cycles spent unsafe before the clear walk");

    g.histogram("dispatch_to_issue", &dispatchToIssue,
                "dispatch-to-issue latency (Fig 9d)");
}

void
PerfCounters::registerCpiStack(StatsRegistry &reg,
                               const std::string &prefix,
                               unsigned width) const
{
    const StatsRegistry::Group g = reg.group(prefix);
    const auto total = [this, width] {
        return static_cast<double>(width) * static_cast<double>(cycles);
    };

    g.formula("width", [width] { return width; },
              "commit slots per cycle the identity is defined against");
    g.counter("cycles", &cycles, "cycles whose slots are charged");
    g.formula("total_slots", total,
              "width x cycles: the identity's right-hand side");
    g.formula("unaccounted",
              [this, total] {
                  return total() - static_cast<double>(accountedSlots());
              },
              "total_slots minus all cause buckets (must be 0)");

    const StatsRegistry::Group s = g.group("slots");
    static const char *const descs[kNumStallCauses] = {
        "slots that retired an instruction",
        "slots lost to fetch/decode starvation (ROB empty)",
        "slots lost refetching after branch-mispredict squashes",
        "slots lost refetching after memory-order squashes",
        "slots lost to trap delivery and post-fault refetch",
        "slots lost to serializing specon/specoff refetches",
        "slots lost behind an NDA-deferred load producer",
        "slots lost behind an NDA-deferred ALU producer",
        "slots lost behind an NDA-deferred control producer",
        "slots lost behind an in-flight memory access",
        "slots lost to MSHR-full structural rejects",
        "slots lost behind in-flight non-memory execution",
        "slots lost to issue-port arbitration and wakeup",
        "slots lost to issue-queue capacity at dispatch",
        "slots lost to LQ/SQ capacity at dispatch",
        "slots lost to ROB/phys-reg capacity at dispatch",
        "slots lost to a co-runner taking the dispatch width",
        "slots at window edges with nothing to account",
    };
    for (int c = 0; c < kNumStallCauses; ++c) {
        s.counter(stallCauseStatName(static_cast<StallCause>(c)),
                  &slots[c], descs[c]);
    }
}

} // namespace nda
