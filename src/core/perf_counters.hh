/**
 * @file
 * Performance counters for the evaluation figures: CPI, the causal
 * CPI stack and its Fig 9a grouping, MLP/ILP (Fig 9b/9c, following
 * Chou et al.), and dispatch-to-issue latency (Fig 9d). Supports
 * window reset so the SMARTS-style harness can warm up and then
 * measure.
 */

#ifndef NDASIM_CORE_PERF_COUNTERS_HH
#define NDASIM_CORE_PERF_COUNTERS_HH

#include <array>
#include <cstdint>
#include <string>

#include "common/histogram.hh"
#include "common/types.hh"
#include "obs/hotspot_profiler.hh"

namespace nda {

class StatsRegistry;

/** Why a pipeline flush happened (squash attribution). */
enum class SquashCause : std::uint8_t {
    kNone = 0,
    kBranchMispredict,   ///< resolved branch disagreed with fetch
    kMemOrderViolation,  ///< load executed past an overlapping store
    kFault,              ///< trap delivery flushed from the ROB head
    kSerialize,          ///< specon/specoff refetch (paper SS8)
    kNumCauses,
};

const char *squashCauseName(SquashCause c);

/** Aggregated core statistics over a measurement window. */
struct PerfCounters {
    Cycle cycles = 0;
    std::uint64_t committedInsts = 0;
    /** Fig 9a: cycles by the class of their StallCause. */
    std::uint64_t cycleClass[static_cast<int>(CycleClass::kNumClasses)] =
        {};
    /**
     * The causal CPI stack (DESIGN.md section 14): commit slots by
     * StallCause. Every cycle charges exactly the core's slot width
     * (CoreBase::slotWidth), so the buckets sum to width x cycles and
     * slots[c] / (width x committedInsts) is cause c's exact share of
     * CPI.
     */
    std::array<std::uint64_t, kNumStallCauses> slots{};

    // Branches
    std::uint64_t condBranches = 0;
    std::uint64_t condMispredicts = 0;
    std::uint64_t indirectBranches = 0;
    std::uint64_t indirectMispredicts = 0;
    std::uint64_t squashes = 0;
    std::uint64_t memOrderViolations = 0;
    /** Committed (architecturally delivered) faults. */
    std::uint64_t faults = 0;

    // Memory
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;

    // MLP (Chou et al.): average outstanding off-chip misses over
    // cycles with at least one outstanding.
    std::uint64_t mlpCycles = 0;      ///< cycles with >=1 outstanding
    std::uint64_t mlpAccum = 0;       ///< sum of outstanding counts

    // ILP: completions per cycle over cycles with >=1 completion.
    std::uint64_t ilpCycles = 0;
    std::uint64_t ilpAccum = 0;

    // NDA instrumentation
    std::uint64_t deferredBroadcasts = 0; ///< broadcasts NDA delayed
    std::uint64_t unsafeMarked = 0;       ///< insts marked unsafe

    /** Squash attribution: flush events by cause (kNone unused). */
    std::uint64_t squashCause[static_cast<int>(SquashCause::kNumCauses)] =
        {};

    Histogram dispatchToIssue{192};
    /** Complete-to-broadcast gap of NDA-deferred producers (Fig 2's
     *  step 3 -> 4 delay, in cycles). */
    Histogram deferredBroadcastDelay{256};
    /** Cycles an instruction spent marked unsafe before its clear. */
    Histogram unsafeResidency{256};

    double
    cpi() const
    {
        return committedInsts
                   ? static_cast<double>(cycles) /
                         static_cast<double>(committedInsts)
                   : 0.0;
    }

    double
    ipc() const
    {
        return cycles ? static_cast<double>(committedInsts) /
                            static_cast<double>(cycles)
                      : 0.0;
    }

    double
    mlp() const
    {
        return mlpCycles ? static_cast<double>(mlpAccum) /
                               static_cast<double>(mlpCycles)
                         : 0.0;
    }

    double
    ilp() const
    {
        return ilpCycles ? static_cast<double>(ilpAccum) /
                               static_cast<double>(ilpCycles)
                         : 0.0;
    }

    double
    cycleFraction(CycleClass c) const
    {
        return cycles ? static_cast<double>(
                            cycleClass[static_cast<int>(c)]) /
                            static_cast<double>(cycles)
                      : 0.0;
    }

    double
    condMispredictRate() const
    {
        return condBranches ? static_cast<double>(condMispredicts) /
                                  static_cast<double>(condBranches)
                            : 0.0;
    }

    /** Sum of every cause bucket: width x cycles when the core
     *  charged each cycle's slots. */
    std::uint64_t
    accountedSlots() const
    {
        std::uint64_t sum = 0;
        for (const std::uint64_t s : slots)
            sum += s;
        return sum;
    }

    /** Zero every counter (start of a measurement window). */
    void reset() { *this = PerfCounters{}; }

    /**
     * Bind every counter into the registry under group `g`
     * (obs/stats_registry.hh). Pointer binding only — the hot path
     * keeps incrementing plain members.
     */
    void registerStats(StatsRegistry &reg, const std::string &prefix) const;

    /** Bind the slot stack under `prefix` (canonically
     *  "core.cpi_stack"): one counter per cause, the cycles and
     *  `width` it is charged against, and the identity's formulas. */
    void registerCpiStack(StatsRegistry &reg, const std::string &prefix,
                          unsigned width) const;
};

} // namespace nda

#endif // NDASIM_CORE_PERF_COUNTERS_HH
