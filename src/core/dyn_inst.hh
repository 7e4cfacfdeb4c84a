/**
 * @file
 * Dynamic (in-flight) instruction state for the OoO core, including
 * the NDA safety bits (unsafe / exec / bcast, paper §5.1) and the
 * InvisiSpec shadow-load state.
 */

#ifndef NDASIM_CORE_DYN_INST_HH
#define NDASIM_CORE_DYN_INST_HH

#include <cstdint>
#include <vector>

#include "branch/predictor_unit.hh"
#include "common/types.hh"
#include "core/perf_counters.hh"
#include "isa/microop.hh"
#include "mem/hierarchy.hh"

namespace nda {

class DynInstPool;

/** One in-flight instruction (a ROB entry). */
struct DynInst {
    MicroOp uop;
    Addr pc = 0;
    InstSeqNum seq = 0;
    /** Hardware thread context this instruction belongs to (SMT). */
    unsigned tid = 0;

    // --- front-end / prediction -----------------------------------------
    Addr predNextPc = 0;
    BpCheckpoint bpCkpt;

    // --- rename ----------------------------------------------------------
    PhysRegId src1 = kInvalidPhysReg;
    PhysRegId src2 = kInvalidPhysReg;
    PhysRegId dest = kInvalidPhysReg;
    PhysRegId prevDest = kInvalidPhysReg;

    // --- pipeline status ---------------------------------------------------
    bool issued = false;
    bool executed = false;   ///< the paper's `exec` bit
    bool squashed = false;
    bool committed = false;
    bool broadcasted = false; ///< the paper's `bcast` bit

    // --- branch resolution -------------------------------------------------
    bool mispredicted = false;
    bool actualTaken = false;
    Addr actualNextPc = 0;

    // --- memory --------------------------------------------------------------
    Addr effAddr = 0;
    bool effAddrValid = false;
    RegVal storeData = 0;
    /** Last issue attempt bounced off a full MSHR file (CPI stack). */
    bool mshrRejected = false;
    bool countedMiss = false;     ///< contributes to the MLP counter
    /** Unresolved-address stores this load executed past (SSB). */
    std::vector<InstSeqNum> bypassedStores;

    // --- InvisiSpec ------------------------------------------------------------
    bool shadowLoad = false;      ///< executed as an invisible access
    bool exposed = false;         ///< fill/validation performed
    HitLevel peekLevel = HitLevel::kL1;
    Cycle validateDoneAt = 0;     ///< IS-Future validation completion
    bool validating = false;

    // --- results / faults ----------------------------------------------------
    RegVal result = 0;
    FaultType fault = FaultType::kNone;
    /** Trap delivery deadline once the faulting op reaches the head. */
    Cycle faultDeliverAt = 0;
    bool faultPending = false;

    // --- DIFT leakage oracle (meaningful only with an engine attached) -----
    /** Taint of the result value (secret bits, see dift/). */
    TaintWord taint = 0;
    /** Taint of the effective address / branch target inputs. */
    TaintWord addrTaint = 0;

    // --- NDA safety state (paper's `unsafe` bit, split by cause) -----------
    bool unsafeBranch = false;  ///< older unresolved speculative branch
    bool unsafeBypass = false;  ///< Bypass Restriction (SSB defense)
    bool unsafeLoad = false;    ///< load restriction (chosen-code defense)
    bool everUnsafe = false;    ///< was unsafe at any point (tracing)
    /** Cycle at which a deferred broadcast becomes eligible (Fig 9e). */
    Cycle bcastEligibleAt = 0;
    bool pendingBcast = false;  ///< queued for a deferred broadcast
    Cycle unsafeMarkedAt = 0;   ///< first cycle any unsafe bit was set
    Cycle unsafeClearedAt = 0;  ///< cycle the last unsafe bit cleared
    /** Why this instruction was flushed (kNone if not squashed). */
    SquashCause squashCause = SquashCause::kNone;

    // --- timing (for Fig 9d and breakdowns) --------------------------------
    Cycle fetchedAt = 0;
    Cycle dispatchedAt = 0;
    Cycle issuedAt = 0;
    Cycle completedAt = 0;
    Cycle broadcastedAt = 0;

    bool isUnsafe() const
    {
        return unsafeBranch || unsafeBypass || unsafeLoad;
    }

    bool hasDest() const { return uop.traits().hasDest; }
    bool isLoad() const { return uop.isLoad(); }
    bool isStore() const { return uop.isStore(); }
    bool isLoadLike() const { return uop.isLoadLike(); }
    bool isBranch() const { return uop.isBranch(); }
    bool isSpecBranch() const { return uop.isSpeculativeBranch(); }

    // --- intrusive pool bookkeeping (owned by DynInstPool) -----------------
    /** Non-atomic reference count — a core (and everything holding
     *  its instructions) lives on one thread; parallelism is at the
     *  simulation-window granularity. */
    std::uint32_t poolRefs_ = 0;
    DynInstPool *pool_ = nullptr;   ///< owning pool, for recycling
    DynInst *poolNext_ = nullptr;   ///< free-list link while recycled

    /** Return to default-constructed state, keeping the heap buffer
     *  of `bypassedStores` so recycled entries do not re-allocate. */
    void
    reset()
    {
        auto saved = std::move(bypassedStores);
        saved.clear();
        *this = DynInst{};
        bypassedStores = std::move(saved);
    }
};

} // namespace nda

#endif // NDASIM_CORE_DYN_INST_HH
