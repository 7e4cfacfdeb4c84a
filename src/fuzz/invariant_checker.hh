/**
 * @file
 * Cycle-level micro-architectural invariant checker for the OoO core.
 *
 * The differential fuzzer catches *architectural* divergence between
 * core models, but a renaming or wakeup bug can cancel out by the time
 * a program halts. This checker closes that gap: attached via
 * CoreBase::attachChecker it is invoked at the end of every OooCore
 * tick (behind a null-pointer guard, like the DIFT engine, so detached
 * simulation pays nothing) and validates structural invariants the
 * pipeline must uphold on EVERY cycle:
 *
 *  - ROB entries appear in strict age (seq) order and are never
 *    squashed or committed (both are removed eagerly);
 *  - each thread's in-flight lists mirror its ROB in age order: the
 *    unresolved-branch list holds exactly the speculative branches
 *    that have not executed, the fence and wrmsr lists exactly the
 *    fences and wrmsrs;
 *  - physical-register accounting: free lists, committed maps, and
 *    in-flight destinations partition the register file with no
 *    duplicates and no leaks (squash recovery is the hard case);
 *  - SMT partition isolation (only checked with >1 hardware thread):
 *    every register a thread's rename map, commit map, or in-flight
 *    destinations reference is owned by that thread's partition, and
 *    every ROB/LSQ entry carries its owning thread's id — a breach
 *    means one context can read (or free) its co-resident's state;
 *  - the speculative rename map equals the committed map overridden
 *    by the youngest in-flight writer of each architectural register;
 *  - LSQ load/store queues are age-ordered subsets of the ROB;
 *  - wakeup ordering: an in-flight destination is ready iff its
 *    producer broadcast, and only executed producers broadcast;
 *  - the NDA safety property (paper §5), evaluated per thread under
 *    that thread's policy (SMT runs mixed protection levels): no
 *    value produced in the shadow of an unresolved speculative branch
 *    (or an unresolved-address store bypass, or a non-head load under
 *    the load restriction) may have been broadcast to consumers;
 *  - MSHR files (when non-blocking mode is on): one primary entry per
 *    line, occupancy within capacity, every data-side load target
 *    backed by a live LSQ load of the target's thread, and every fill
 *    due within the maximal legal miss latency (L2 + DRAM) — a later
 *    fill is one the memory system lost, whose waiters would sleep
 *    forever.
 */

#ifndef NDASIM_FUZZ_INVARIANT_CHECKER_HH
#define NDASIM_FUZZ_INVARIANT_CHECKER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace nda {

class OooCore;

/**
 * Deliberate state corruptions OooCore::corruptForTest can apply so
 * tests can prove the checker actually detects violations (a checker
 * that cannot fail is itself untested).
 */
enum class FuzzCorruption : std::uint8_t {
    kNone = 0,
    kFreeListLeak,   ///< drop a register from the free list
    kDoubleFree,     ///< free a register still architecturally mapped
    kEarlyWakeup,    ///< set ready on an unsafe, un-broadcast producer
    kRenameCorrupt,  ///< alias two rename-map entries
    kRobReorder,     ///< swap the age order of two ROB entries
    kMshrDupPrimary, ///< two primary MSHR entries for one line
    kMshrGhostTarget, ///< MSHR load target with no LSQ load behind it
    kMshrOverflow,   ///< MSHR occupancy pushed past capacity
    kMshrStuckFill,  ///< fill scheduled past any legal miss latency
    kCrossThreadRenameBleed, ///< thread 0's rename map aliases thread 1's partition
};

/** Name of a corruption kind (CLI flag spelling). */
const char *fuzzCorruptionName(FuzzCorruption kind);
/** Parse a corruption kind from its CLI spelling; kNone if unknown. */
FuzzCorruption fuzzCorruptionFromName(const std::string &name);

/** The invariant families the checker enforces. */
enum class InvariantKind : std::uint8_t {
    kRobOrder = 0,        ///< ROB age order / no dead entries
    kBranchBookkeeping,   ///< branch/fence/wrmsr lists mirror the ROB
    kFreeList,            ///< phys-reg partition, no leak/double-free
    kRenameMap,           ///< rename map vs commit map + ROB writers
    kLsqOrder,            ///< LSQ age order and ROB membership
    kWakeupOrder,         ///< ready bit iff broadcast, broadcast iff executed
    kNdaSafety,           ///< no unsafe value reached consumers
    kMshrPrimary,         ///< at most one primary entry per line
    kMshrTargets,         ///< load targets backed by live LSQ loads
    kMshrOccupancy,       ///< occupancy within the file's capacity
    kMshrFill,            ///< fills due within the legal latency bound
    kSmtPartition,        ///< per-thread phys-reg/ROB/LSQ isolation
    kNumInvariantKinds,
};

const char *invariantKindName(InvariantKind kind);

/** One detected invariant violation. */
struct InvariantViolation {
    InvariantKind kind = InvariantKind::kRobOrder;
    Cycle cycle = 0;            ///< cycle at whose end it was seen
    InstSeqNum seq = kInvalidSeqNum; ///< offending instruction, if any
    std::string detail;
};

/** Per-cycle structural validator (friend of OooCore). */
class InvariantChecker
{
  public:
    /** Validate all invariants at the end of `core`'s current cycle.
     *  Violations accumulate; checking stops recording (but keeps
     *  counting) past `kMaxRecorded` so a broken core cannot OOM the
     *  fuzzer. */
    void onCycleEnd(const OooCore &core);

    bool clean() const { return totalViolations_ == 0; }
    std::uint64_t totalViolations() const { return totalViolations_; }
    const std::vector<InvariantViolation> &violations() const
    {
        return violations_;
    }
    std::uint64_t cyclesChecked() const { return cyclesChecked_; }

    /** Drop recorded state so one checker can serve several runs. */
    void reset();

    /** One-line rendering of a violation (for logs and asserts). */
    static std::string describe(const InvariantViolation &v);

    /** Recorded-violation cap (the counter keeps going past it). */
    static constexpr std::size_t kMaxRecorded = 64;

  private:
    void report(InvariantKind kind, Cycle cycle, InstSeqNum seq,
                std::string detail);

    void checkRobOrder(const OooCore &core);
    void checkBranchBookkeeping(const OooCore &core);
    void checkFreeList(const OooCore &core);
    void checkSmtPartition(const OooCore &core);
    void checkRenameMap(const OooCore &core);
    void checkLsq(const OooCore &core);
    void checkWakeupOrder(const OooCore &core);
    void checkNdaSafety(const OooCore &core);
    void checkMshr(const OooCore &core);

    std::vector<InvariantViolation> violations_;
    // Per-cycle scratch, kept so checking allocates nothing per cycle.
    std::vector<std::uint8_t> regOwner_; ///< checkFreeList: owner per reg
    std::vector<Addr> mshrLines_;        ///< checkMshr: lines seen per file
    std::uint64_t totalViolations_ = 0;
    std::uint64_t cyclesChecked_ = 0;
};

} // namespace nda

#endif // NDASIM_FUZZ_INVARIANT_CHECKER_HH
