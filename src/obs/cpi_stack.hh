/**
 * @file
 * Causal CPI-stack accounting (interval analysis over commit slots).
 *
 * Every cycle the commit stage owns `commitWidth` retirement slots;
 * a slot either retires an instruction or is *lost* to exactly one
 * cause read at the blocked ROB head (NDA tag-broadcast deferral of
 * the producer it waits on, by producer class, an outstanding miss, a
 * full MSHR file, squash refetch by cause, a capacity limit, frontend
 * starvation, ...). The decomposition is exact by construction:
 *
 *     sum over causes of slots[cause] == commitWidth x cycles
 *
 * so dividing by (commitWidth x committed instructions) turns the
 * stack into an exact CPI decomposition, and the NDA-vs-baseline CPI
 * delta is explained term by term (DESIGN.md section 14).
 *
 * The profiler itself is a passive counter sink with no core
 * dependencies: the attribution lives in the cores (they own the
 * micro-architectural state it reads), and they feed slots in through
 * addSlots() behind a null-guarded pointer — detached simulation pays
 * nothing, like the DIFT engine and the invariant checker.
 */

#ifndef NDASIM_OBS_CPI_STACK_HH
#define NDASIM_OBS_CPI_STACK_HH

#include <cstdint>
#include <string>

#include "common/types.hh"
#include "obs/hotspot_profiler.hh"

namespace nda {

class StatsRegistry;

/** Bind the stack's counters under `prefix` (canonically
 *  "core.cpi_stack"). Pointer binding only, like every registerStats
 *  in the tree; the profiler must outlive the registry's last dump. */
class CpiStackProfiler
{
  public:
    explicit CpiStackProfiler(unsigned commit_width)
        : width_(commit_width)
    {
    }

    /** Commit width the slot identity is defined against. */
    unsigned width() const { return width_; }

    /** One call per simulated cycle while attached. */
    void onCycle() { ++cycles_; }

    /** Charge `n` slots of this cycle to `cause`, attributed to the
     *  root instruction at `pc` (the *causal* PC: for an NDA deferral
     *  that is the deferred producer, not the stalled consumer). */
    void
    addSlots(StallCause cause, std::uint64_t n, Addr pc)
    {
        slots_[static_cast<int>(cause)] += n;
        hotspots_.record(pc, cause, n);
    }

    std::uint64_t cycles() const { return cycles_; }

    std::uint64_t
    slots(StallCause cause) const
    {
        return slots_[static_cast<int>(cause)];
    }

    /** The identity's right-hand side: width x cycles. */
    std::uint64_t
    totalSlots() const
    {
        return static_cast<std::uint64_t>(width_) * cycles_;
    }

    /** The identity's left-hand side: sum of all cause buckets. */
    std::uint64_t accountedSlots() const;

    const HotspotProfiler &hotspots() const { return hotspots_; }
    HotspotProfiler &hotspots() { return hotspots_; }

    /** Fraction of all slots lost to `cause` (0 when no cycles). */
    double slotFraction(StallCause cause) const;

    /** Zero every bucket and the hotspot map (measurement-window
     *  boundary, alongside PerfCounters::reset). */
    void reset();

    /** Bind slots per cause + cycles/width + identity formulas under
     *  `prefix`. */
    void registerStats(StatsRegistry &reg,
                       const std::string &prefix) const;

  private:
    unsigned width_;
    std::uint64_t cycles_ = 0;
    std::uint64_t slots_[static_cast<int>(StallCause::kNumCauses)] = {};
    HotspotProfiler hotspots_;
};

} // namespace nda

#endif // NDASIM_OBS_CPI_STACK_HH
