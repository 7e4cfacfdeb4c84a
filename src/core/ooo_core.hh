/**
 * @file
 * Cycle-level out-of-order core with genuine wrong-path execution,
 * physical-register renaming, an issue queue woken by tag broadcast,
 * a load/store queue with speculative store bypass, and the NDA
 * safety unit (paper §5) plus the InvisiSpec comparison model.
 *
 * The core hosts 1..N SMT hardware threads (CoreParams::smtThreads).
 * Each thread owns its architectural view — rename map, commit map,
 * MSRs, ROB stream, fetch state, and the NDA ordering deques — in a
 * ThreadContext; the issue queue, LSQ capacity, functional units,
 * physical register storage, cache hierarchy (incl. MSHR files), and
 * branch predictor are shared. A single-thread core takes exactly the
 * pre-SMT paths: every loop over threads reduces to thread 0 and the
 * cycle-level behaviour is bit-identical.
 *
 * Stage order within a cycle (commit-first so broadcasts in cycle C
 * allow dependent issue in cycle C):
 *   commit -> complete/broadcast -> issue -> dispatch/rename -> fetch
 */

#ifndef NDASIM_CORE_OOO_CORE_HH
#define NDASIM_CORE_OOO_CORE_HH

#include <deque>
#include <functional>
#include <map>
#include <vector>

#include "branch/predictor_unit.hh"
#include "core/core_base.hh"
#include "core/core_config.hh"
#include "core/dyn_inst_pool.hh"
#include "core/issue_queue.hh"
#include "core/lsq.hh"
#include "core/phys_reg_file.hh"
#include "core/rename_map.hh"
#include "isa/program.hh"
#include "obs/hotspot_profiler.hh"

namespace nda {

struct ArchState;
class InvariantChecker;
/** Deliberate state corruptions (defined in fuzz/invariant_checker.hh). */
enum class FuzzCorruption : std::uint8_t;

/** The out-of-order core model. */
class OooCore : public CoreBase
{
  public:
    /** A core in `start`, or at the program's cold start when it is
     *  null (CoreBase::applyStart). The core owns `prog`. */
    OooCore(Program prog, const SimConfig &cfg,
            const SimSnapshot *start = nullptr);

    bool tick() override;

    /** Every hardware thread has halted. */
    bool halted() const override;

    RegVal archReg(RegId r) const override;
    RegVal msr(unsigned idx) const override
    {
        return threads_[0].msrs[idx];
    }

    MemoryMap &mem() override { return mem_; }
    const MemoryMap &mem() const override { return mem_; }
    MemHierarchy &hierarchy() override { return hier_; }

    const PerfCounters &counters() const override { return counters_; }
    void resetCounters() override { counters_.reset(); }

    /** Perf + hierarchy (base) plus predictor, IQ, LSQ, regfile. The
     *  names do not depend on the hardware-thread count. */
    void registerStats(StatsRegistry &reg,
                       const std::string &prefix) override;

    /**
     * Attach the DIFT leakage oracle (dift/taint_engine.hh). Every
     * hook site is guarded by a null check, so detached simulation
     * pays nothing.
     */
    void attachDift(TaintEngine *engine) override;

    /** Per cycle the commit stage owns `commitWidth` slots; each is
     *  charged to the retiring instruction or to the cause of the
     *  blocked ROB head (accountCycle). */
    unsigned slotWidth() const override { return cfg_.core.commitWidth; }

    /**
     * Test/fuzz-only: deliberately violate one micro-architectural
     * invariant so the checker's detection logic can itself be tested
     * (a checker that cannot fail is untested). Returns false when the
     * requested corruption is not applicable to the current state
     * (e.g. no unsafe in-flight producer to wake early); callers
     * retry on a later cycle.
     */
    bool corruptForTest(FuzzCorruption kind);

    // --- introspection for tests & the ROB-snapshot example -------------
    const std::deque<DynInstPtr> &
    rob(unsigned tid = 0) const
    {
        return threads_[tid].rob;
    }
    PredictorUnit &predictor() { return bp_; }
    const SimConfig &config() const { return cfg_; }

    unsigned numThreads() const { return numThreads_; }
    bool threadHalted(unsigned tid) const { return threads_[tid].halted; }

    /** Thread `tid`'s committed architectural register `r`. */
    RegVal
    archRegOf(unsigned tid, RegId r) const
    {
        return regs_.value(threads_[tid].commitMap[r]);
    }

    /** Taint of the committed architectural register `r` (0 if no
     *  engine is attached). Test/debug introspection. */
    TaintWord archRegTaint(RegId r) const override;

    /**
     * Checkpoint the *committed* machine: architectural values come
     * from the commit rename map, the PC is the oldest un-committed
     * instruction's (in-flight work is deliberately excluded — it
     * re-executes after a restore). Cache tags and predictor tables
     * are captured as-is, wrong-path pollution included. Threads
     * beyond 0 land in SimSnapshot::extraThreads (empty at smt=1).
     */
    void saveCheckpoint(SimSnapshot &out) const override;

    /** Restore into a freshly constructed core only (asserted).
     *  Thread 0 always restores; extraThreads apply to matching
     *  hardware contexts, surplus snapshot threads are ignored, and
     *  uncovered contexts take their cold start (an smt=1 snapshot
     *  seeds thread 0 of an smt=2 core). */
    void restoreCheckpoint(const SimSnapshot &snap) override;

    /**
     * Install a callback invoked once per dynamic instruction when it
     * leaves the machine (at commit, or when squashed), with the
     * current cycle. Used by debug::PipeTrace.
     */
    void
    setRetireHook(std::function<void(const DynInst &, Cycle)> hook)
    {
        retireHook_ = std::move(hook);
    }

  private:
    /**
     * Everything one SMT hardware thread owns privately: its
     * architectural view (commit map, MSRs), speculative rename map,
     * in-order ROB stream, front-end state, and the per-thread NDA /
     * ordering bookkeeping. A squash is scoped to one ThreadContext.
     */
    struct ThreadContext {
        std::deque<DynInstPtr> rob;
        /** Committed arch reg -> phys reg holding the value. */
        PhysRegId commitMap[kNumArchRegs] = {};
        RenameMap rmap;
        RegVal msrs[kNumMsrRegs] = {};

        // front end
        std::deque<DynInstPtr> fetchQueue;
        Addr fetchPc = 0;
        bool fetchBlocked = false;
        Cycle icacheStallUntil = 0;
        Addr lastFetchLine = ~Addr{0};

        // NDA / ordering bookkeeping (same-thread properties): each
        // list holds its in-ROB instructions' seqs in age order
        std::deque<InstSeqNum> unresolvedBranches;
        std::deque<InstSeqNum> fencesInFlight;
        std::deque<InstSeqNum> wrmsrInFlight;

        bool specDisabled = false; ///< inside a specoff window (SS8)
        bool halted = false;

        // Stall causes the stages saw, read by accountCycle
        /** Why commit stopped at the head this cycle, for the blocks
         *  the head's own state cannot show (fault wait, IS-Future
         *  validation, store MSHR reject); kCommit otherwise. */
        StallCause commitBlock = StallCause::kCommit;
        /** Why dispatch stopped renaming this thread last cycle
         *  (kFrontend: nothing to rename, or the full width used;
         *  kDispatchShare: a co-runner spent the width first). */
        StallCause dispatchBlock = StallCause::kFrontend;
        bool refetchPending = false; ///< squashed; refill not dispatched
        /** The refetch's slot bucket, by the squash's cause. */
        StallCause refetchCause = StallCause::kFrontend;
        Addr lastSquashPc = 0;   ///< pc of the squashing instruction
    };

    /** Copy one thread's checkpointed state (regs, MSRs, pc, halted,
     *  last fetch line, register taint) out of / into the core. Thread
     *  0's ArchState also carries the shared state, which the callers
     *  copy themselves. */
    void captureThread(const ThreadContext &tc, ArchState &arch) const;
    void applyThread(const ArchState &arch, ThreadContext &tc);

    // --- pipeline stages -------------------------------------------------
    void commitStage();
    void completeStage();
    void issueStage();
    void dispatchStage();
    void fetchStage();
    /** Fetch up to fetchWidth micro-ops for one hardware thread. */
    void fetchThread(unsigned tid);
    /** SMT fetch arbitration (round-robin or ICOUNT); the thread to
     *  fetch for this cycle, or numThreads_ if none is fetchable. */
    unsigned pickFetchThread() const;

    // --- helpers ----------------------------------------------------------
    void executeInst(const DynInstPtr &inst, unsigned &mem_issued,
                     unsigned &muldiv_issued, bool &rejected);
    bool executeLoad(const DynInstPtr &inst);
    void resolveBranch(const DynInstPtr &inst);
    void scheduleCompletion(const DynInstPtr &inst, unsigned latency);

    /** Broadcast the tag: mark dest ready so dependents can wake. */
    void broadcast(const DynInstPtr &inst);
    /** Defer `inst`'s broadcast to a free port at or after cycle
     *  `eligible_at`, unless it has no tag left to broadcast or is
     *  queued already; pendingBcast_ stays in age order. */
    void queueBroadcast(const DynInstPtr &inst, Cycle eligible_at);
    /** Queue a newly-safe completed instruction for broadcast. */
    void maybeQueueBroadcast(const DynInstPtr &inst);

    /** Squash thread `tid`'s instructions with seq > `keep_seq`;
     *  redirect that thread's fetch. Other threads are untouched.
     *  `cause` attributes the flush (perf counter + per-inst tag) and
     *  `cause_pc` is the instruction that forced it (CPI stack). */
    void squashAfter(unsigned tid, InstSeqNum keep_seq,
                     Addr redirect_pc, SquashCause cause, Addr cause_pc);
    void raiseFault(const DynInstPtr &inst);

    /** Record unsafe-residency once the last unsafe bit clears. */
    void noteUnsafeCleared(DynInst &inst);

    /** Remove a resolved/squashed branch from its thread's list. */
    void branchResolved(unsigned tid, InstSeqNum seq);
    /**
     * Paper §5.1: when thread `tid`'s eldest unresolved branch
     * changes, clear `unsafe` on its older ROB entries and queue
     * their deferred broadcasts; also exposes InvisiSpec-Spectre
     * shadow loads.
     */
    void ndaClearWalk(unsigned tid);

    /** Does the age-ordered in-flight list hold an entry older than
     *  `seq`? */
    static bool
    hasOlder(const std::deque<InstSeqNum> &list, InstSeqNum seq)
    {
        return !list.empty() && list.front() < seq;
    }

    /** NDA policy for thread `tid` (per-thread under SMT). */
    const SecurityConfig &secFor(unsigned tid) const
    {
        return cfg_.secFor(tid);
    }

    /** One slot attribution: root cause + the causal instruction. */
    struct SlotAttr {
        StallCause cause;
        Addr pc;
    };

    /**
     * Charge one cycle in which `ncommit` instructions retired: the
     * cycle count, the Fig 9a class, and every commit slot of the CPI
     * stack. The cycle's cause is kCommit if anything retired, else
     * the priority thread's head or empty-slot cause; its Fig 9a class
     * is that cause's cycleClassOf group. Runs once per tick, at the
     * end of the commit stage.
     */
    void accountCycle(unsigned ncommit);
    /** Cause of thread `tid`'s stalled ROB head: the recorded commit
     *  block, the head's own latency, or the one producer of the
     *  operand it waits on. */
    SlotAttr headCause(unsigned tid) const;
    /** Cause of thread `tid`'s slots beyond ROB occupancy (squash
     *  refetch, frontend starvation, or a dispatch capacity limit
     *  from last cycle). */
    SlotAttr emptyCause(unsigned tid) const;

    RegVal srcValue(PhysRegId r) const
    {
        return r == kInvalidPhysReg ? 0 : regs_.value(r);
    }

    /** SMT arbitration order: the thread at rotation position `k`
     *  this cycle (commit, dispatch and fetch all start at k = 0). */
    unsigned
    rotatedTid(unsigned k) const
    {
        return (static_cast<unsigned>(cycle_) + k) % numThreads_;
    }
    /** The thread whose stall explains the pooled cycle class / CPI
     *  stack: the first in rotation order with a non-empty ROB. */
    unsigned priorityTid() const;
    /** Total ROB occupancy across threads (shared capacity). */
    std::size_t robOccupancy() const;

    // --- configuration / program -----------------------------------------
    const Program prog_;
    SimConfig cfg_;
    unsigned numThreads_;

    /** In-flight instruction allocator. Declared before every
     *  container that holds DynInstPtr so it is destroyed last. */
    DynInstPool pool_;

    // --- shared architectural + micro-architectural state -----------------
    MemoryMap mem_;
    MemHierarchy hier_;
    PredictorUnit bp_;
    PhysRegFile regs_;
    IssueQueue iq_;
    Lsq lsq_;

    /** The hardware thread contexts (size == smtThreads). */
    std::vector<ThreadContext> threads_;

    // --- events -------------------------------------------------------------
    std::multimap<Cycle, DynInstPtr> completionEvents_;

    /** Completed-but-unwoken producers awaiting a broadcast port
     *  (shared: ports are a core resource). Kept in age order (global
     *  seq) by queueBroadcast, so the drain grants ports oldest
     *  first. */
    std::vector<DynInstPtr> pendingBcast_;

    // --- misc state -----------------------------------------------------------
    InstSeqNum nextSeq_ = 0;
    /** Delivered faults since the entry point (ArchState::faultCount);
     *  unlike counters_.faults, survives resetCounters(). */
    std::uint64_t faultCount_ = 0;
    int outstandingMisses_ = 0;
    std::function<void(const DynInst &, Cycle)> retireHook_;
    TaintEngine *dift_ = nullptr; ///< leakage oracle, usually absent

    /** The core's only counters, pooled over hardware threads. */
    PerfCounters counters_;

    /** The checker reads every private structure it validates. */
    friend class InvariantChecker;
};

} // namespace nda

#endif // NDASIM_CORE_OOO_CORE_HH
