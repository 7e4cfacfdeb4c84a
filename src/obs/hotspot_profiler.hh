/**
 * @file
 * Per-PC hotspot aggregation for the causal CPI stack. Every commit
 * slot the core charges (PerfCounters::slots) carries the *root* PC
 * of its cause — the deferred producer for an NDA stall, the
 * mispredicted branch for a squash-refetch slot, the retiring
 * instruction for a commit slot — and this profiler folds those into
 * a pc -> per-cause slot table with top-N ranking and a collapsed
 * stack ("folded") text rendering that flamegraph tooling consumes
 * directly.
 *
 * StallCause itself lives here, at the bottom of the obs layer, so
 * both this aggregator and the core's PerfCounters share one
 * definition. So does Fig 9a's CycleClass, which is a fixed grouping
 * of StallCause.
 */

#ifndef NDASIM_OBS_HOTSPOT_PROFILER_HH
#define NDASIM_OBS_HOTSPOT_PROFILER_HH

#include <array>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.hh"

namespace nda {

/**
 * Root cause of one commit slot. kCommit is the productive bucket;
 * every other value names why a slot retired nothing. The NDA buckets
 * split the tag-broadcast deferral by the *producer's* class, which
 * is the paper's policy axis (branch restriction defers ALU/control
 * producers, load restriction defers load producers).
 */
enum class StallCause : std::uint8_t {
    kCommit = 0,       ///< slot retired an instruction
    kFrontend,         ///< ROB empty: fetch/decode starvation
    kSquashBranch,     ///< refetch after a branch-mispredict squash
    kSquashMemOrder,   ///< refetch after a memory-order squash
    kSquashFault,      ///< trap delivery wait + post-fault refetch
    kSquashSerialize,  ///< specon/specoff serializing refetch
    kNdaDeferLoad,     ///< head waits on a deferred load producer
    kNdaDeferAlu,      ///< head waits on a deferred ALU producer
    kNdaDeferControl,  ///< head waits on a deferred control producer
    kMemLatency,       ///< head is an in-flight memory access
    kMshrFull,         ///< MSHR-full structural reject (load or store)
    kExecLatency,      ///< head is in-flight non-memory work
    kIssueWait,        ///< ready but unselected (ports, fences, wake)
    kIqFull,           ///< dispatch blocked: issue queue capacity
    kLsqFull,          ///< dispatch blocked: LQ/SQ capacity
    kRobFull,          ///< dispatch blocked: ROB/phys-reg capacity
    kDispatchShare,    ///< dispatch skipped: co-runner took the width
    kIdle,             ///< window edge / halted: nothing to account
    kNumCauses,
};

constexpr int kNumStallCauses =
    static_cast<int>(StallCause::kNumCauses);

/** Classification of each simulated cycle (Fig 9a): the group of the
 *  cycle's StallCause (cycleClassOf). */
enum class CycleClass : std::uint8_t {
    kCommit = 0,     ///< commit, idle: retired, or a window edge
    kMemoryStall,    ///< mem_latency, mshr_full
    kBackendStall,   ///< nda_defer_*, exec_latency, issue_wait, *_full,
                     ///< dispatch_share
    kFrontendStall,  ///< frontend, squash_*
    kNumClasses,
};

/** The Fig 9a class each StallCause is charged to, in cause order. */
inline constexpr CycleClass kCycleClassOf[kNumStallCauses] = {
    CycleClass::kCommit,        // commit
    CycleClass::kFrontendStall, // frontend
    CycleClass::kFrontendStall, // squash_branch
    CycleClass::kFrontendStall, // squash_mem_order
    CycleClass::kFrontendStall, // squash_fault
    CycleClass::kFrontendStall, // squash_serialize
    CycleClass::kBackendStall,  // nda_defer_load
    CycleClass::kBackendStall,  // nda_defer_alu
    CycleClass::kBackendStall,  // nda_defer_control
    CycleClass::kMemoryStall,   // mem_latency
    CycleClass::kMemoryStall,   // mshr_full
    CycleClass::kBackendStall,  // exec_latency
    CycleClass::kBackendStall,  // issue_wait
    CycleClass::kBackendStall,  // iq_full
    CycleClass::kBackendStall,  // lsq_full
    CycleClass::kBackendStall,  // rob_full
    CycleClass::kBackendStall,  // dispatch_share
    CycleClass::kCommit,        // idle
};

constexpr CycleClass
cycleClassOf(StallCause c)
{
    return kCycleClassOf[static_cast<int>(c)];
}

/** Display name ("nda-defer-load"); never null, all values distinct. */
const char *stallCauseName(StallCause c);

/** Stats-schema leaf name ("nda_defer_load"); snake_case, distinct. */
const char *stallCauseStatName(StallCause c);

/** One ranked hotspot: a PC and its per-cause slot counts. */
struct HotspotEntry {
    Addr pc = 0;
    std::array<std::uint64_t, kNumStallCauses> slots{};

    /** Slots lost at this PC (everything but kCommit/kIdle). */
    std::uint64_t lostSlots() const;
    /** All slots recorded at this PC. */
    std::uint64_t totalSlots() const;

    bool
    operator==(const HotspotEntry &o) const
    {
        return pc == o.pc && slots == o.slots;
    }
};

/** pc -> per-cause slot aggregation with deterministic ranking. */
class HotspotProfiler
{
  public:
    void
    record(Addr pc, StallCause cause, std::uint64_t n)
    {
        table_[pc][static_cast<int>(cause)] += n;
    }

    std::size_t size() const { return table_.size(); }
    bool empty() const { return table_.empty(); }

    void reset() { table_.clear(); }

    /** Fold another profiler's table into this one (window reduce). */
    void merge(const HotspotProfiler &other);

    /** Fold a ranked entry back in (cross-window aggregation). */
    void mergeEntry(const HotspotEntry &e);

    /**
     * The `n` PCs losing the most slots, ranked by lost slots
     * descending with PC ascending as the tie-break, so the ranking
     * is deterministic for any accumulation order.
     */
    std::vector<HotspotEntry> topN(std::size_t n) const;

    /**
     * Collapsed-stack ("folded") text: one line per nonzero
     * (pc, cause) pair, `root;pc_0x2a;nda-defer-load 123`, sorted —
     * `flamegraph.pl` and speedscope consume this directly.
     */
    std::string renderCollapsed(const std::string &root) const;

    /** JSON array of the top `n` entries (for run manifests). */
    std::string topJson(std::size_t n) const;

  private:
    std::unordered_map<Addr,
                       std::array<std::uint64_t, kNumStallCauses>>
        table_;
};

} // namespace nda

#endif // NDASIM_OBS_HOTSPOT_PROFILER_HH
