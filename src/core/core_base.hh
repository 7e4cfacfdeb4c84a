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
class CpiStackProfiler;

/** Abstract timing core. */
class CoreBase
{
  public:
    virtual ~CoreBase() = default;

    /**
     * Attach the DIFT leakage oracle for this run (see dift/). Cores
     * that model no information flow ignore it; the default is a
     * no-op so attaching is always safe.
     */
    virtual void attachDift(TaintEngine *engine) { (void)engine; }

    /**
     * Attach the per-cycle micro-architectural invariant checker
     * (fuzz/invariant_checker.hh). Cores without speculative state
     * have nothing to check; the default is a no-op.
     */
    virtual void attachChecker(InvariantChecker *checker)
    {
        (void)checker;
    }

    /**
     * Attach the causal CPI-stack profiler (obs/cpi_stack.hh): the
     * core feeds it one attribution per commit slot per cycle. Every
     * hook is null-guarded, so detached simulation pays nothing; the
     * default is a no-op for cores that do not attribute.
     */
    virtual void attachCpiStack(CpiStackProfiler *p) { (void)p; }

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

    /** Advance one cycle. */
    virtual void tick() = 0;

    /**
     * Run until the program halts, `max_insts` more instructions
     * commit, or `max_cycles` more cycles elapse.
     */
    virtual void run(std::uint64_t max_insts,
                     Cycle max_cycles = ~Cycle{0}) = 0;

    virtual bool halted() const = 0;
    virtual Cycle cycle() const = 0;
    /** Total committed instructions since construction. */
    virtual std::uint64_t committedInsts() const = 0;

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
     * Seed a *freshly constructed* core from a warming checkpoint:
     * architectural registers, memory image, PC, and — where the
     * snapshot carries them and the geometry matches (asserted) —
     * cache tags and predictor tables. Timing state (cycle count,
     * in-flight instructions) is NOT part of a checkpoint; the core
     * resumes from an empty pipeline, which is exactly the SMARTS
     * detailed warm-up's job to refill.
     */
    virtual void restoreCheckpoint(const SimSnapshot &snap) = 0;

    /**
     * Bind every stat this core exposes into `reg` under `prefix`
     * (obs/stats_registry.hh). Pointer binding only — no effect on
     * simulation speed. The base binds the perf counters and the
     * cache hierarchy; micro-architected cores override to add their
     * predictor/queue/regfile structures.
     */
    virtual void
    registerStats(StatsRegistry &reg, const std::string &prefix)
    {
        counters().registerStats(reg, prefix + ".perf");
        hierarchy().registerStats(reg, prefix + ".mem");
    }
};

} // namespace nda

#endif // NDASIM_CORE_CORE_BASE_HH
