/**
 * @file
 * Architectural reference interpreter and shared functional semantics.
 *
 * The interpreter defines the ISA's architectural behaviour and serves
 * as the oracle for differential testing: every core model (in-order,
 * OoO, any NDA/InvisiSpec configuration) must produce the same final
 * architectural state, since NDA only changes *timing*.
 *
 * It runs directly on a shared ArchState (core/arch_state.hh), so its
 * complete state can be saved and restored bit-exactly, and it
 * optionally performs *functional warming* (SMARTS, paper §6.1):
 * per retired instruction it touches an attached cache hierarchy and
 * trains an attached predictor unit following the same update rules
 * as the timing cores' correct path, so a fast-forwarded checkpoint
 * starts a detailed window with warm micro-architectural state.
 */

#ifndef NDASIM_ISA_INTERPRETER_HH
#define NDASIM_ISA_INTERPRETER_HH

#include <cstdint>

#include "common/types.hh"
#include "core/arch_state.hh"
#include "isa/predecode.hh"
#include "isa/program.hh"
#include "mem/memory_map.hh"

namespace nda {

class TaintEngine;
class MemHierarchy;
class PredictorUnit;

/**
 * Functional-warming work performed by an interpreter over its
 * lifetime: the cost drivers of a fast-forward phase. Not part of
 * ArchState (it is not architectural); both the fast loop and the
 * step() oracle count identically, which the lockstep test checks.
 */
struct WarmingWork {
    std::uint64_t iTouches = 0;  ///< i-cache accesses (line crossings)
    std::uint64_t dTouches = 0;  ///< d-cache accesses (ld/st/prefetch)
    std::uint64_t bpTrains = 0;  ///< branches trained into the predictor

    WarmingWork &
    operator+=(const WarmingWork &o)
    {
        iTouches += o.iTouches;
        dTouches += o.dTouches;
        bpTrains += o.bpTrains;
        return *this;
    }

    bool operator==(const WarmingWork &) const = default;
};

/**
 * Pure ALU semantics shared by the interpreter and the core exec unit.
 * `a` = rs1 value, `b` = rs2 value, `imm` = immediate.
 */
RegVal evalAlu(Opcode op, RegVal a, RegVal b, std::int64_t imm);

/** Direction of a conditional branch given its source values. */
bool evalCondBranch(Opcode op, RegVal a, RegVal b);

/**
 * Architectural next-PC of any instruction at `pc`, given source
 * values (for indirect branches, `a` = rs1 value).
 */
Addr evalNextPc(const MicroOp &uop, Addr pc, RegVal a, RegVal b);

/** Outcome of stepping the interpreter once. */
enum class StepResult : std::uint8_t {
    kOk,
    kHalted,
    kFaulted,      ///< fault raised and handled (or halted, if no handler)
    kOutOfRange,   ///< pc left the program (treated as halt)
};

/** Architectural-state interpreter (no timing). */
class Interpreter
{
  public:
    /** Start at the program's cold start (ArchState::reset), or in
     *  `start`. The interpreter keeps its own copy of `prog`. */
    explicit Interpreter(Program prog);
    Interpreter(Program prog, const ArchState &start);

    /**
     * Execute one instruction through the switch-dispatched slow
     * path. This is the semantic oracle: `run()` must be bit-identical
     * to a step() loop, and the lockstep test enforces it.
     */
    StepResult step();

    /**
     * Run until halt/fault-without-handler or until `max_insts`
     * instructions have committed. Dispatches to a predecoded
     * threaded-code loop specialized at compile time on the three
     * attachment axes (cache warming, predictor warming, DIFT), so
     * the common fast-forward configurations execute with no per-step
     * attachment tests or pc re-validation.
     * @return number of instructions executed.
     */
    std::uint64_t run(std::uint64_t max_insts);

    /**
     * Run until the lifetime retirement count reaches
     * `target_inst_count` (a no-op if already there). This is the
     * chained fast-forward primitive: a restored interpreter extends
     * its run to an absolute offset, so checkpoint k+1 is built from
     * checkpoint k by executing exactly one stride more.
     * @return number of instructions executed by this call.
     */
    std::uint64_t runTo(std::uint64_t target_inst_count);

    const Program &program() const { return prog_; }
    bool halted() const { return st_.halted; }
    Addr pc() const { return st_.pc; }
    RegVal reg(RegId r) const { return st_.regs[r]; }
    void setReg(RegId r, RegVal v) { st_.regs[r] = v; }
    RegVal msr(unsigned i) const { return st_.msrs[i]; }
    std::uint64_t instCount() const { return st_.instCount; }
    std::uint64_t faultCount() const { return st_.faultCount; }

    MemoryMap &mem() { return st_.mem; }
    const MemoryMap &mem() const { return st_.mem; }

    /**
     * Pseudo-cycle counter returned by RDTSC in the interpreter: the
     * instruction count (architectural time has no cycles).
     */
    std::uint64_t tscValue() const { return st_.instCount; }

    /**
     * Attach the DIFT oracle (dift/taint_engine.hh): taint then
     * propagates architecturally with every step. The interpreter is
     * the reference propagation model the cores must agree with.
     * Attach before running: the engine takes the taint the start
     * state carries (ArchState::applyTaint; none for a cold start).
     */
    void attachDift(TaintEngine *engine);

    /**
     * Attach functional-warming targets: every retired instruction
     * then touches the hierarchy (i-fetch on line crossing, d-access
     * per load/store/prefetch, flush per clflush) and trains the
     * predictor with its actual outcome (PredictorUnit::warmResolved).
     * Warming only models non-faulting accesses — wrong-path and
     * faulting pollution is what the detailed warm-up window after a
     * restore is for.
     */
    void
    attachWarming(MemHierarchy &hier, PredictorUnit &bp)
    {
        warmHier_ = &hier;
        warmBp_ = &bp;
    }

    /** Functional-warming work performed so far (lifetime totals). */
    const WarmingWork &warmingWork() const { return warmWork_; }

    /**
     * Save the complete state; if a DIFT engine is attached its
     * architectural taint is captured too, so a restored run resumes
     * taint propagation bit-exactly.
     */
    ArchState save() const;

    /** Restore a previously saved state (applies captured taint to an
     *  attached DIFT engine). */
    void restore(const ArchState &snap);

  private:
    /**
     * The threaded-code hot loop, stamped out once per attachment
     * configuration (interpreter.cc). Only defined when
     * NDASIM_THREADED_DISPATCH; run() falls back to a step() loop
     * otherwise.
     */
    template <bool Warm, bool HasDift>
    std::uint64_t runImpl(std::uint64_t max_insts);

    const Program prog_;
    const PredecodedProgram pre_;       ///< decode-once op stream
    ArchState st_;
    WarmingWork warmWork_;
    TaintEngine *dift_ = nullptr;
    // Functional warming targets: both attached, or neither.
    MemHierarchy *warmHier_ = nullptr;
    PredictorUnit *warmBp_ = nullptr;
};

} // namespace nda

#endif // NDASIM_ISA_INTERPRETER_HH
