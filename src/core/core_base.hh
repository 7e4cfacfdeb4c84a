/**
 * @file
 * Common interface of all timing core models (OoO with any security
 * configuration, and the in-order baseline), so the harness, attacks,
 * and tests can drive them uniformly.
 */

#ifndef NDASIM_CORE_CORE_BASE_HH
#define NDASIM_CORE_CORE_BASE_HH

#include <memory>

#include "common/types.hh"
#include "core/perf_counters.hh"
#include "mem/hierarchy.hh"
#include "mem/memory_map.hh"

namespace nda {

struct Program;
struct SimSnapshot;
class TaintEngine;
class InvariantChecker;
class HotspotProfiler;

/** Why CoreBase::run returned. */
enum class StopReason : std::uint8_t {
    kTarget,     ///< the requested instructions committed
    kHalted,     ///< every hardware thread halted
    kCycleLimit, ///< the requested cycles elapsed
    kNoProgress, ///< nothing committed for CoreBase::kNoCommitCycles
    kInvariant,  ///< the attached invariant checker saw a violation
};

/** Spelling of a stop reason in error lines and fuzz details. */
const char *stopReasonName(StopReason why);

/** Abstract timing core. */
class CoreBase
{
  public:
    virtual ~CoreBase() = default;

    /**
     * Attach the DIFT leakage oracle for this run (see dift/). Cores
     * that model no information flow ignore it; the default is a
     * no-op so attaching is always safe. A start state's taint goes
     * to the engine attached when the state is put in: to run a
     * tainted checkpoint under DIFT, attach to a cold core, then
     * restoreCheckpoint.
     */
    virtual void attachDift(TaintEngine *engine) { (void)engine; }

    /**
     * Attach the per-cycle micro-architectural invariant checker
     * (fuzz/invariant_checker.hh); run() stops at its first violation.
     * Cores without speculative state never call it, so it stays clean.
     */
    void attachChecker(InvariantChecker *checker) { checker_ = checker; }

    /**
     * Attach a per-PC hotspot table (obs/hotspot_profiler.hh): every
     * commit slot the core charges to counters().slots is also
     * recorded at its root PC. Null-guarded, so detached simulation
     * pays nothing.
     */
    void attachHotspots(HotspotProfiler *p) { hotspots_ = p; }

    /** Commit slots per cycle the CPI stack (counters().slots) is
     *  charged against. */
    virtual unsigned slotWidth() const = 0;

    /**
     * Taint of the committed architectural register `r` under the
     * attached DIFT engine (0 when none is attached). Lets the
     * differential fuzzer compare final architectural taint across
     * core models through the common interface.
     */
    virtual TaintWord archRegTaint(RegId r) const
    {
        (void)r;
        return 0;
    }

    /** Advance one cycle; false once the core has halted, so run()
     *  needs no per-cycle halted() call. */
    virtual bool tick() = 0;

    /**
     * The one run loop: tick until `max_insts` more instructions
     * commit, the program halts, `max_cycles` more cycles elapse,
     * nothing commits for kNoCommitCycles cycles, or the attached
     * checker records a violation, and say which. Both limits
     * saturate, so ~0 means unbounded.
     */
    StopReason run(std::uint64_t max_insts, Cycle max_cycles = ~Cycle{0});

    /** The no-commit watchdog of run(): a core this long without a
     *  commit is deadlocked. */
    static constexpr Cycle kNoCommitCycles = 500'000;

    virtual bool halted() const = 0;
    Cycle cycle() const { return cycle_; }
    /** Total committed instructions since construction. */
    std::uint64_t committedInsts() const { return committed_; }

    /** Committed architectural register value. */
    virtual RegVal archReg(RegId r) const = 0;
    virtual RegVal msr(unsigned idx) const = 0;

    virtual MemoryMap &mem() = 0;
    virtual const MemoryMap &mem() const = 0;
    virtual MemHierarchy &hierarchy() = 0;

    virtual const PerfCounters &counters() const = 0;

    /** Start a fresh measurement window (SMARTS warm-up boundary). */
    virtual void resetCounters() = 0;

    /**
     * Capture this core's architectural state — and whatever warming
     * state it keeps (cache tags, predictor tables) — into `out`
     * (core/snapshot.hh). Used by the sampling harness and by
     * differential tests.
     */
    virtual void saveCheckpoint(SimSnapshot &out) const = 0;

    /**
     * Put `snap` into a *freshly constructed* core (asserted):
     * architectural registers, memory image, PC, and — where the
     * snapshot carries them and the geometry matches (asserted) —
     * cache tags and predictor tables. Every constructor ends here
     * (makeCore), so callers need it only to re-start a cold core.
     * Timing state (cycle count, in-flight instructions) is NOT part
     * of a checkpoint; the core resumes from an empty pipeline, which
     * is exactly the SMARTS detailed warm-up's job to refill.
     */
    virtual void restoreCheckpoint(const SimSnapshot &snap) = 0;

    /**
     * Bind every stat this core exposes into `reg` under `prefix`
     * (obs/stats_registry.hh). Pointer binding only — no effect on
     * simulation speed. The base binds the perf counters, their CPI
     * stack and the cache hierarchy; micro-architected cores override
     * to add their predictor/queue/regfile structures.
     */
    virtual void
    registerStats(StatsRegistry &reg, const std::string &prefix)
    {
        counters().registerStats(reg, prefix + ".perf");
        counters().registerCpiStack(reg, prefix + ".cpi_stack",
                                    slotWidth());
        hierarchy().registerStats(reg, prefix + ".mem");
    }

  protected:
    /** End of every core constructor: restoreCheckpoint(*start), or
     *  the program's cold start (ArchState::reset) when `start` is
     *  null, with its memory image moved in, not copied. */
    void applyStart(const Program &prog, const SimSnapshot *start);

    Cycle cycle_ = 0; ///< cycles ticked since construction
    std::uint64_t committed_ = 0; ///< what committedInsts() returns
    /** Committed-instruction count at which the current run() stops;
     *  a core that commits several per cycle stops exactly here. */
    std::uint64_t commitTarget_ = ~std::uint64_t{0};
    InvariantChecker *checker_ = nullptr; ///< usually absent
    HotspotProfiler *hotspots_ = nullptr; ///< usually absent
};

} // namespace nda

#endif // NDASIM_CORE_CORE_BASE_HH
