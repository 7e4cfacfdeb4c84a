/**
 * @file
 * In-order, non-pipelined timing core in the spirit of gem5's
 * TimingSimpleCPU (paper Table 3's in-order baseline). No
 * speculation of any kind, hence trivially immune to speculative
 * execution attacks — the paper's secure-performance lower bound.
 */

#ifndef NDASIM_CORE_INORDER_CORE_HH
#define NDASIM_CORE_INORDER_CORE_HH

#include "core/core_base.hh"
#include "core/core_config.hh"
#include "isa/interpreter.hh"
#include "isa/program.hh"

namespace nda {

/**
 * Non-pipelined in-order timing model. The architecture is the
 * reference Interpreter, stepped once per instruction; the core adds
 * only timing: one i-cache request per instruction, a blocking data
 * request per load/store, and the execute latency of ALU ops.
 */
class InOrderCore : public CoreBase
{
  public:
    /** A core in `start`, or at the program's cold start when it is
     *  null (CoreBase::applyStart). The core owns `prog`. */
    InOrderCore(Program prog, const SimConfig &cfg,
                const SimSnapshot *start = nullptr);

    /**
     * Advance one cycle; when the current instruction's latency has
     * elapsed, the next instruction executes.
     */
    bool tick() override;

    bool halted() const override { return interp_.halted(); }

    RegVal archReg(RegId r) const override { return interp_.reg(r); }
    RegVal msr(unsigned idx) const override { return interp_.msr(idx); }

    MemoryMap &mem() override { return interp_.mem(); }
    const MemoryMap &mem() const override { return interp_.mem(); }
    MemHierarchy &hierarchy() override { return hier_; }

    const PerfCounters &counters() const override { return counters_; }
    void resetCounters() override { counters_.reset(); }

    /** DIFT oracle: architectural taint only — nothing speculates
     *  here, so no leak event can ever be raised. */
    void
    attachDift(TaintEngine *engine) override
    {
        dift_ = engine;
        interp_.attachDift(engine);
    }

    /** CPI stack: width 1, so each cycle is one slot — a commit, or a
     *  stall charged to the instruction paying its latency. */
    unsigned slotWidth() const override { return 1; }

    TaintWord archRegTaint(RegId r) const override;

    void saveCheckpoint(SimSnapshot &out) const override;
    void restoreCheckpoint(const SimSnapshot &snap) override;

  private:
    /** Execute one instruction; returns its total cycle cost. */
    Cycle step();
    /** Charge this cycle's one slot to `cause`, paid for by `pc`: the
     *  Fig 9a class, the CPI stack, and the hotspots when attached. */
    void accountCycle(StallCause cause, Addr pc);

    Interpreter interp_;
    MemHierarchy hier_;

    Cycle busyUntil_ = 0;
    /** What the cycles until busyUntil_ wait on: the fetch, the data
     *  access, or the ALU latency of the last instruction. */
    StallCause stallCause_ = StallCause::kCommit;
    /** Line of the last i-fetch, carried in ArchState::lastFetchLine. */
    Addr lastFetchLine_ = ~Addr{0};
    TaintEngine *dift_ = nullptr;
    Addr stallPc_ = 0; ///< pc whose latency busyUntil_ is paying

    PerfCounters counters_;
};

} // namespace nda

#endif // NDASIM_CORE_INORDER_CORE_HH
