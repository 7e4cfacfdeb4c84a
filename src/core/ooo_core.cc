#include "core/ooo_core.hh"

#include <algorithm>
#include <iterator>
#include <string>

#include "common/log.hh"
#include "core/snapshot.hh"
#include "dift/taint_engine.hh"
#include "fuzz/invariant_checker.hh"
#include "isa/interpreter.hh"

namespace nda {

OooCore::OooCore(Program prog, const SimConfig &cfg,
                 const SimSnapshot *start)
    : prog_(std::move(prog)),
      cfg_(cfg),
      numThreads_(std::max(1u, cfg.core.smtThreads)),
      hier_(cfg.memory),
      bp_(cfg.core.predictor),
      regs_(cfg.core.numPhysRegs),
      iq_(cfg.core.iqEntries),
      lsq_(cfg.core.lqEntries, cfg.core.sqEntries,
           std::max(1u, cfg.core.smtThreads)),
      threads_(std::max(1u, cfg.core.smtThreads))
{
    NDA_ASSERT(cfg.core.numPhysRegs >=
                   numThreads_ * kNumArchRegs + cfg.core.robEntries,
               "need at least arch-per-thread + ROB physical registers");
    regs_.reset(kNumArchRegs, numThreads_);
    for (unsigned t = 0; t < numThreads_; ++t) {
        ThreadContext &tc = threads_[t];
        const PhysRegId base =
            static_cast<PhysRegId>(t * kNumArchRegs);
        tc.rmap.reset(base);
        for (unsigned r = 0; r < kNumArchRegs; ++r)
            tc.commitMap[r] = static_cast<PhysRegId>(base + r);
    }
    applyStart(prog_, start);
}

bool
OooCore::halted() const
{
    return std::all_of(threads_.begin(), threads_.end(),
                       [](const ThreadContext &tc) { return tc.halted; });
}

RegVal
OooCore::archReg(RegId r) const
{
    return regs_.value(threads_[0].commitMap[r]);
}

void
OooCore::attachDift(TaintEngine *engine)
{
    dift_ = engine;
    if (dift_)
        dift_->bindPhysRegs(cfg_.core.numPhysRegs);
}

TaintWord
OooCore::archRegTaint(RegId r) const
{
    return dift_ ? dift_->regTaint(threads_[0].commitMap[r]) : 0;
}

void
OooCore::captureThread(const ThreadContext &tc, ArchState &arch) const
{
    for (unsigned r = 0; r < kNumArchRegs; ++r)
        arch.regs[r] = regs_.value(tc.commitMap[r]);
    for (int i = 0; i < kNumMsrRegs; ++i)
        arch.msrs[i] = tc.msrs[i];
    // The architectural PC is the oldest instruction that has not yet
    // committed; with an idle pipeline it is simply the fetch PC.
    arch.pc = !tc.rob.empty()         ? tc.rob.front()->pc
              : !tc.fetchQueue.empty() ? tc.fetchQueue.front()->pc
                                       : tc.fetchPc;
    arch.halted = tc.halted;
    arch.lastFetchLine = tc.lastFetchLine;
    if (dift_) {
        arch.hasTaint = true;
        for (unsigned r = 0; r < kNumArchRegs; ++r)
            arch.regTaint[r] = dift_->regTaint(tc.commitMap[r]);
    }
}

void
OooCore::applyThread(const ArchState &arch, ThreadContext &tc)
{
    for (unsigned r = 0; r < kNumArchRegs; ++r)
        regs_.setValue(tc.commitMap[r], arch.regs[r]);
    for (int i = 0; i < kNumMsrRegs; ++i)
        tc.msrs[i] = arch.msrs[i];
    tc.fetchPc = arch.pc;
    tc.halted = arch.halted;
    tc.lastFetchLine = arch.lastFetchLine;
    if (dift_ && arch.hasTaint) {
        for (unsigned r = 0; r < kNumArchRegs; ++r)
            dift_->setRegTaint(tc.commitMap[r], arch.regTaint[r]);
    }
}

void
OooCore::saveCheckpoint(SimSnapshot &out) const
{
    out = SimSnapshot{};
    ArchState &arch = out.arch;
    captureThread(threads_[0], arch);
    arch.instCount = committed_;
    arch.faultCount = faultCount_;
    arch.mem = mem_;
    if (dift_) {
        for (unsigned i = 0; i < kNumMsrRegs; ++i)
            arch.msrTaint[i] = dift_->msrTaint(i);
        arch.memTaint = dift_->memTaintMap();
    }

    // Hardware threads beyond 0: architectural view only. Memory is
    // shared and already captured above, so their mem maps stay empty.
    for (unsigned t = 1; t < numThreads_; ++t)
        captureThread(threads_[t], out.extraThreads.emplace_back());

    out.hasMem = true;
    out.mem = hier_.save();
    out.memParams = cfg_.memory;
    out.hasPredictor = true;
    out.predictor = bp_.save();
    out.bpParams = cfg_.core.predictor;
}

void
OooCore::restoreCheckpoint(const SimSnapshot &snap)
{
    NDA_ASSERT(cycle_ == 0 && committed_ == 0 && threads_[0].rob.empty(),
               "checkpoints restore into freshly constructed cores");
    const ArchState &arch = snap.arch;
    applyThread(arch, threads_[0]);
    committed_ = arch.instCount;
    faultCount_ = arch.faultCount;
    mem_ = arch.mem;
    if (dift_ && arch.hasTaint) {
        for (unsigned i = 0; i < kNumMsrRegs; ++i)
            dift_->setMsrTaint(i, arch.msrTaint[i]);
        dift_->setMemTaintMap(arch.memTaint);
    }
    // extraThreads seed matching hardware contexts; a thread the
    // snapshot does not cover (threads 1..N-1 of an smt=1 snapshot)
    // starts at its cold start.
    for (unsigned t = 1; t < numThreads_; ++t) {
        if (t <= snap.extraThreads.size()) {
            applyThread(snap.extraThreads[t - 1], threads_[t]);
        } else {
            ArchState cold;
            cold.reset(prog_, t);
            applyThread(cold, threads_[t]);
        }
    }
    if (snap.hasMem)
        hier_.restore(snap.mem);
    if (snap.hasPredictor)
        bp_.restore(snap.predictor);
}

bool
OooCore::corruptForTest(FuzzCorruption kind)
{
    ThreadContext &t0 = threads_[0];
    switch (kind) {
      case FuzzCorruption::kFreeListLeak:
        // Allocate a register nothing will ever reference or free.
        if (!regs_.hasFree())
            return false;
        regs_.alloc();
        return true;
      case FuzzCorruption::kDoubleFree:
        // A committed mapping lands on the free list while still
        // holding an architectural value.
        regs_.free(t0.commitMap[0]);
        return true;
      case FuzzCorruption::kEarlyWakeup:
        // Wake dependents of an in-flight producer NDA still holds
        // unsafe — exactly the leak the deferred broadcast prevents.
        for (const ThreadContext &tc : threads_) {
            for (const DynInstPtr &inst : tc.rob) {
                if (inst->dest != kInvalidPhysReg && inst->isUnsafe() &&
                    !inst->broadcasted) {
                    regs_.setReady(inst->dest);
                    return true;
                }
            }
        }
        return false;
      case FuzzCorruption::kRenameCorrupt:
        // Point r0's speculative mapping at r1's: younger consumers
        // of r0 would silently read r1's value.
        if (t0.rmap.lookup(0) == t0.rmap.lookup(1))
            return false;
        t0.rmap.rename(0, t0.rmap.lookup(1));
        return true;
      case FuzzCorruption::kRobReorder:
        if (t0.rob.size() < 2)
            return false;
        std::swap(t0.rob[0]->seq, t0.rob[1]->seq);
        return true;
      case FuzzCorruption::kCrossThreadRenameBleed:
        // SMT isolation breach: thread 0's speculative map aliases a
        // register thread 1 owns — t0 consumers would silently read
        // (and t0 squashes would free) the co-resident thread's state.
        if (numThreads_ < 2)
            return false;
        threads_[0].rmap.rename(0, threads_[1].rmap.lookup(0));
        return true;
      case FuzzCorruption::kMshrDupPrimary:
        // Two primary entries racing for one line: both would fill,
        // double-counting and corrupting LRU order.
        return hier_.mshrDataForTest().testDuplicatePrimary();
      case FuzzCorruption::kMshrGhostTarget:
        // A fill about to wake a load the LSQ has never heard of.
        return hier_.mshrDataForTest().testAddGhostTarget(nextSeq_ +
                                                          1000);
      case FuzzCorruption::kMshrOverflow:
        // More in-flight misses than registers exist to track them.
        return hier_.mshrDataForTest().testOverflow(
            cycle_ + hier_.params().l2.hitLatency +
            hier_.params().dramLatency);
      case FuzzCorruption::kMshrStuckFill:
        // A fill the memory system lost: scheduled beyond any legal
        // miss latency, so its waiting loads would sleep forever.
        return hier_.mshrDataForTest().testStuckFill();
      default:
        return false;
    }
}

bool
OooCore::tick()
{
    ++cycle_;

    // Land every fill due this cycle before any stage looks at the
    // tags (the completing load's line must be present when it wakes).
    hier_.advance(cycle_);

    commitStage();
    completeStage();
    issueStage();
    dispatchStage();
    fetchStage();

    // MLP is defined on the misses still outstanding once every stage
    // has run, so its sample is the one charge outside accountCycle.
    if (outstandingMisses_ > 0) {
        ++counters_.mlpCycles;
        counters_.mlpAccum += static_cast<std::uint64_t>(outstandingMisses_);
    }

    if (checker_)
        checker_->onCycleEnd(*this);
    return !halted();
}

// --------------------------------------------------------------------------
// Commit
// --------------------------------------------------------------------------

void
OooCore::commitStage()
{
    unsigned ncommit = 0;
    for (ThreadContext &tc : threads_)
        tc.commitBlock = StallCause::kCommit;

    // Shared commit bandwidth, threads served in rotation order so
    // neither context can monopolise retirement. One thread reduces
    // to the pre-SMT loop exactly.
    for (unsigned k = 0;
         k < numThreads_ && ncommit < cfg_.core.commitWidth; ++k) {
        const unsigned tid = rotatedTid(k);
        ThreadContext &tc = threads_[tid];

    // Stop exactly at run()'s commit target so measurement windows
    // have precise boundaries.
    while (ncommit < cfg_.core.commitWidth && !tc.rob.empty() &&
           !tc.halted && committed_ < commitTarget_) {
        DynInstPtr inst = tc.rob.front();

        if (!inst->executed)
            break; // stall; headCause reads why from the head

        if (inst->fault != FaultType::kNone) {
            // Trap delivery is not instantaneous: the fault fires
            // `faultLatency` cycles after the op reaches the head.
            // Dependents keep executing meanwhile — the wrong-path
            // window chosen-code attacks exploit (paper §3.1). NDA's
            // load restriction closes it by never broadcasting the
            // faulting load's value.
            if (!inst->faultPending) {
                inst->faultPending = true;
                inst->faultDeliverAt =
                    cycle_ + cfg_.core.faultLatency;
            }
            if (cycle_ < inst->faultDeliverAt) {
                // Trap-delivery latency is part of the fault's
                // squash cost.
                tc.commitBlock = StallCause::kSquashFault;
                break;
            }
            raiseFault(inst);
            break;
        }

        // InvisiSpec-Future: loads that executed invisibly must
        // validate before retirement. The expose (cache fill) was
        // issued when older branches resolved; if the line was absent
        // from L1 at peek time, validation re-accesses the (now
        // filled) L1 and stalls retirement for one L1 round trip.
        if (secFor(tid).invisiSpec == InvisiSpecMode::kFuture &&
            inst->shadowLoad && !inst->validating) {
            if (!inst->exposed) {
                hier_.dataFill(inst->effAddr);
                inst->exposed = true;
            }
            inst->validating = true;
            inst->validateDoneAt =
                inst->peekLevel == HitLevel::kL1
                    ? cycle_
                    : cycle_ + hier_.params().l1d.hitLatency;
        }
        if (inst->validating && cycle_ < inst->validateDoneAt) {
            // An L1 round trip at retirement.
            tc.commitBlock = StallCause::kMemLatency;
            break;
        }

        // NDA load restriction: a load wakes its dependents iff it is
        // about to retire (paper §5.3). The wake-up signal from the
        // retire stage reaches the issue queue one cycle later (there
        // is no bypass path from commit).
        inst->unsafeLoad = false;
        // Defensive: nothing older remains, so branch/bypass unsafety
        // is moot at the head.
        inst->unsafeBranch = false;
        inst->unsafeBypass = false;
        noteUnsafeCleared(*inst);
        queueBroadcast(inst, cycle_ + cfg_.core.retireWakeDelay +
                                 secFor(tid).extraBroadcastDelay);

        // Commit actions. A store needs its data register broadcast
        // before it can drain (split store-data micro-op).
        if (inst->isStore() && inst->src2 != kInvalidPhysReg &&
            !regs_.ready(inst->src2)) {
            break;
        }
        if (inst->isStore()) {
            // The drain needs a write-allocate slot; a full MSHR file
            // stalls commit this cycle (retry next).
            const MemRequestResult res = hier_.dataRequest(
                inst->effAddr, cycle_, inst->seq, MshrTargetKind::kStore,
                tid);
            if (res.rejected()) {
                tc.commitBlock = StallCause::kMshrFull;
                break;
            }
            inst->storeData = regs_.value(inst->src2);
            mem_.write(inst->effAddr, inst->storeData, inst->uop.size);
            lsq_.commitStore(*inst);
            ++counters_.stores;
            // DIFT: the committed store makes its data's taint (or
            // lack of it) the architectural taint of the location.
            if (dift_) {
                dift_->writeMemTaint(inst->effAddr, inst->uop.size,
                                     dift_->regTaint(inst->src2));
            }
        } else if (inst->isLoad()) {
            lsq_.commitLoad(*inst);
            ++counters_.loads;
        }

        if (inst->uop.traits().isCondBranch) {
            bp_.commitUpdate(inst->uop, inst->pc, inst->actualTaken,
                             inst->bpCkpt.history);
            ++counters_.condBranches;
            if (inst->mispredicted)
                ++counters_.condMispredicts;
        } else if (inst->uop.traits().isIndirect) {
            ++counters_.indirectBranches;
            if (inst->mispredicted)
                ++counters_.indirectMispredicts;
        }

        if (inst->uop.op == Opcode::kFence) {
            NDA_ASSERT(!tc.fencesInFlight.empty() &&
                           tc.fencesInFlight.front() == inst->seq,
                       "fence bookkeeping mismatch");
            tc.fencesInFlight.pop_front();
        }
        if (inst->uop.op == Opcode::kWrMsr) {
            NDA_ASSERT(!tc.wrmsrInFlight.empty() &&
                           tc.wrmsrInFlight.front() == inst->seq,
                       "wrmsr bookkeeping mismatch");
            tc.wrmsrInFlight.pop_front();
        }

        // Free the register holding the previous committed value.
        if (inst->dest != kInvalidPhysReg) {
            const RegId rd = inst->uop.rd;
            if (tc.commitMap[rd] != kInvalidPhysReg)
                regs_.free(tc.commitMap[rd]);
            tc.commitMap[rd] = inst->dest;
        }

        inst->committed = true;
        if (dift_)
            dift_->onCommit(inst->seq); // its mutations are archit.
        if (retireHook_)
            retireHook_(*inst, cycle_);
        tc.rob.pop_front();
        ++ncommit;
        ++committed_;
        ++counters_.committedInsts;
        if (hotspots_)
            hotspots_->record(inst->pc, StallCause::kCommit, 1);

        if (inst->uop.op == Opcode::kHalt) {
            tc.halted = true;
            break;
        }
        if (inst->uop.op == Opcode::kSpecOff ||
            inst->uop.op == Opcode::kSpecOn) {
            // Serializing: flush everything younger and refetch it
            // under the new speculation mode (paper SS8, Listing 4).
            tc.specDisabled = inst->uop.op == Opcode::kSpecOff;
            squashAfter(tid, inst->seq, inst->pc + 1,
                        SquashCause::kSerialize, inst->pc);
            break;
        }
    }
    }
    accountCycle(ncommit);
}

unsigned
OooCore::priorityTid() const
{
    for (unsigned k = 0; k < numThreads_; ++k) {
        if (!threads_[rotatedTid(k)].rob.empty())
            return rotatedTid(k);
    }
    return rotatedTid(0);
}

std::size_t
OooCore::robOccupancy() const
{
    std::size_t n = 0;
    for (const ThreadContext &tc : threads_)
        n += tc.rob.size();
    return n;
}

void
OooCore::accountCycle(unsigned ncommit)
{
    const unsigned ptid = priorityTid();
    const ThreadContext &tc = threads_[ptid];
    const std::uint64_t lost = cfg_.core.commitWidth - ncommit;
    // Window edge: the machine is done, the slots measure nothing.
    const bool edge = halted() || committed_ >= commitTarget_;
    // In-order commit: every occupied slot behind the blocked head
    // shares the head's cause. Slots beyond ROB occupancy never had
    // an instruction to retire, so their cause is upstream (squash
    // refetch, frontend starvation, or a dispatch capacity limit).
    const std::uint64_t occupied =
        edge ? 0 : std::min<std::uint64_t>(lost, tc.rob.size());

    // The cause of the first lost slot: the cycle's cause when
    // nothing retired.
    SlotAttr first{StallCause::kCommit, 0};
    if (lost) {
        if (edge)
            first = {StallCause::kIdle,
                     tc.rob.empty() ? tc.fetchPc : tc.rob.front()->pc};
        else if (occupied)
            first = headCause(ptid);
        else
            first = emptyCause(ptid);
    }
    ++counters_.cycles;
    ++counters_.cycleClass[static_cast<int>(
        cycleClassOf(ncommit ? StallCause::kCommit : first.cause))];
    counters_.slots[static_cast<int>(StallCause::kCommit)] += ncommit;
    if (!lost)
        return;

    const auto charge = [this](const SlotAttr &a, std::uint64_t n) {
        counters_.slots[static_cast<int>(a.cause)] += n;
        if (hotspots_)
            hotspots_->record(a.pc, a.cause, n);
    };
    // The first cause takes the occupied slots, or every lost slot at
    // a window edge or behind an empty ROB.
    const std::uint64_t n = occupied ? occupied : lost;
    charge(first, n);
    if (lost > n)
        charge(emptyCause(ptid), lost - n);
}

namespace {

/** NDA deferral bucket by the *producer's* class — the paper's policy
 *  axis (load restriction defers loads, branch restriction defers the
 *  ALU/control work under an unresolved branch). */
StallCause
ndaDeferCause(const DynInst &producer)
{
    if (producer.isLoadLike())
        return StallCause::kNdaDeferLoad;
    if (producer.isBranch())
        return StallCause::kNdaDeferControl;
    return StallCause::kNdaDeferAlu;
}

/** The slot bucket of the refetch after a squash of each cause. */
StallCause
refetchCauseOf(SquashCause c)
{
    constexpr StallCause kRefetch[] = {
        StallCause::kFrontend,        StallCause::kSquashBranch,
        StallCause::kSquashMemOrder,  StallCause::kSquashFault,
        StallCause::kSquashSerialize,
    };
    static_assert(std::size(kRefetch) ==
                  static_cast<std::size_t>(SquashCause::kNumCauses));
    return kRefetch[static_cast<int>(c)];
}

} // namespace

OooCore::SlotAttr
OooCore::headCause(unsigned tid) const
{
    const ThreadContext &tc = threads_[tid];
    const DynInst &head = *tc.rob.front();
    if (tc.commitBlock != StallCause::kCommit)
        return {tc.commitBlock, head.pc};

    const auto waiting = [this](PhysRegId r) {
        return r != kInvalidPhysReg && !regs_.ready(r);
    };
    // Split store micro-ops: an executed store reads its data
    // register at commit.
    const bool store_data =
        head.executed && head.isStore() && waiting(head.src2);
    if (!store_data && (head.issued || head.executed)) {
        // In flight: the remaining latency is the cost.
        const bool mem_op = head.uop.isMemory() || head.validating;
        return {mem_op ? StallCause::kMemLatency : StallCause::kExecLatency,
                head.pc};
    }
    // The first operand the head still needs, as sourcesReady() sees
    // it (an unissued store's data is not read yet).
    PhysRegId need = kInvalidPhysReg;
    if (store_data)
        need = head.src2;
    else if (waiting(head.src1))
        need = head.src1;
    else if (!head.isStore() && waiting(head.src2))
        need = head.src2;
    if (need == kInvalidPhysReg) {
        // Sources ready but still unissued: a structural reject (MSHR
        // full on its last attempt) or selection/port pressure.
        return {head.mshrRejected ? StallCause::kMshrFull
                                  : StallCause::kIssueWait,
                head.pc};
    }
    // The head's producers are older than it, so they have committed
    // and only the retire-wake queue can still hold one: the youngest
    // queued writer of `need`, executed with its broadcast withheld.
    // That is NDA's deferral if the producer was ever unsafe, else
    // plain port arbitration / retire-wake plumbing.
    for (auto it = pendingBcast_.rbegin(); it != pendingBcast_.rend();
         ++it) {
        const DynInst &p = **it;
        if (p.dest == need && !p.squashed && !p.broadcasted) {
            return {p.everUnsafe ? ndaDeferCause(p)
                                 : StallCause::kIssueWait,
                    p.pc};
        }
    }
    // The producer left without a broadcast record: the head waits on
    // selection, not data.
    return {StallCause::kIssueWait, head.pc};
}

OooCore::SlotAttr
OooCore::emptyCause(unsigned tid) const
{
    const ThreadContext &tc = threads_[tid];
    // Between a squash and the refetched stream reaching dispatch,
    // the missing instructions are the flush's fault — charged to the
    // squashing instruction, not to the innocent frontend.
    if (tc.refetchPending)
        return {tc.refetchCause, tc.lastSquashPc};
    // dispatchBlock still holds *last* cycle's outcome (this runs in
    // commit, before this cycle's dispatch) — exactly the dispatch
    // decision that produced today's ROB tail. Dispatch sets it on
    // every thread every cycle, the ones it skipped included.
    return {tc.dispatchBlock,
            tc.fetchQueue.empty() ? tc.fetchPc : tc.fetchQueue.front()->pc};
}

void
OooCore::raiseFault(const DynInstPtr &inst)
{
    // The faulting instruction does not retire; everything from it on
    // (inclusive) is squashed and fetch redirects to the handler.
    ++counters_.faults;
    ++faultCount_;
    const Addr handler = prog_.faultHandler;
    squashAfter(inst->tid, inst->seq - 1,
                handler == ~Addr{0} ? 0 : handler, SquashCause::kFault,
                inst->pc);
    if (handler == ~Addr{0})
        threads_[inst->tid].halted = true;
}

// --------------------------------------------------------------------------
// Complete / broadcast
// --------------------------------------------------------------------------

void
OooCore::completeStage()
{
    // Collect this cycle's completion events in age order.
    std::vector<DynInstPtr> done;
    auto range_end = completionEvents_.upper_bound(cycle_);
    for (auto it = completionEvents_.begin(); it != range_end; ++it)
        done.push_back(it->second);
    completionEvents_.erase(completionEvents_.begin(), range_end);
    std::sort(done.begin(), done.end(),
              [](const DynInstPtr &a, const DynInstPtr &b) {
                  return a->seq < b->seq;
              });

    std::vector<DynInstPtr> to_broadcast;
    unsigned completed = 0;
    for (const DynInstPtr &inst : done) {
        if (inst->countedMiss) {
            --outstandingMisses_;
            inst->countedMiss = false;
        }
        if (inst->squashed)
            continue;

        inst->executed = true;
        inst->completedAt = cycle_;
        ++completed;

        if (inst->isStore()) {
            inst->effAddrValid = true;
            // Memory-order violation? (speculative store bypass;
            // always same-thread — forwarding never crosses contexts)
            if (DynInstPtr victim = lsq_.checkViolations(*inst)) {
                ++counters_.memOrderViolations;
                squashAfter(inst->tid, victim->seq - 1, victim->pc,
                            SquashCause::kMemOrderViolation,
                            inst->pc);
            }
            // Bypass Restriction: loads that no longer have any
            // unresolved bypassed store become safe (paper §5.2).
            for (const DynInstPtr &ld :
                 lsq_.retireBypass(inst->seq, inst->tid)) {
                if (ld->unsafeBypass) {
                    ld->unsafeBypass = false;
                    noteUnsafeCleared(*ld);
                    maybeQueueBroadcast(ld);
                }
            }
        }

        if (inst->squashed)
            continue; // a violation squash may have taken this one too

        if (inst->uop.op == Opcode::kWrMsr &&
            inst->fault == FaultType::kNone) {
            threads_[inst->tid]
                .msrs[static_cast<unsigned>(inst->uop.imm)] =
                inst->storeData;
            if (dift_) {
                dift_->setMsrTaint(
                    static_cast<unsigned>(inst->uop.imm), inst->taint);
            }
        }

        if (inst->isBranch())
            resolveBranch(inst);

        if (inst->squashed)
            continue;

        if (inst->dest != kInvalidPhysReg) {
            // Write back the value; readiness (the broadcast) is what
            // NDA defers for unsafe instructions (paper Fig 2).
            regs_.setValue(inst->dest, inst->result);
            // DIFT: taint travels with the value. Consumers only read
            // it after the broadcast sets the ready bit, which always
            // happens after this write.
            if (dift_)
                dift_->setRegTaint(inst->dest, inst->taint);
            if (inst->isUnsafe())
                ++counters_.deferredBroadcasts;
            else
                to_broadcast.push_back(inst);
        }
    }

    // Broadcast-port arbitration: same-cycle completions have
    // priority over deferred (newly-safe) broadcasts (paper §5.1).
    unsigned ports = cfg_.core.issueWidth;
    for (const DynInstPtr &inst : to_broadcast) {
        if (ports > 0) {
            broadcast(inst);
            --ports;
        } else {
            queueBroadcast(inst, cycle_ + 1);
        }
    }
    // The ports left go to deferred broadcasts, oldest first; an entry
    // leaves the queue when it broadcasts or goes stale.
    std::erase_if(pendingBcast_, [&](const DynInstPtr &inst) {
        // A retired instruction's register may have been freed and
        // reallocated by the time its deferred retire-wake fires; by
        // then every consumer has already committed, so the wake is
        // both unnecessary and unsafe — drop it.
        const bool reg_reused =
            inst->committed &&
            threads_[inst->tid].commitMap[inst->uop.rd] != inst->dest;
        if (!inst->squashed && !inst->broadcasted && !reg_reused) {
            if (ports == 0 || cycle_ < inst->bcastEligibleAt)
                return false; // keeps waiting
            broadcast(inst);
            --ports;
        }
        inst->pendingBcast = false;
        return true;
    });

    if (completed) {
        ++counters_.ilpCycles;
        counters_.ilpAccum += completed;
    }
}

void
OooCore::broadcast(const DynInstPtr &inst)
{
    NDA_ASSERT(inst->dest != kInvalidPhysReg, "broadcast without dest");
    regs_.setReady(inst->dest);
    inst->broadcasted = true;
    inst->broadcastedAt = cycle_;
    // Fig 2 step 3->4: how long NDA held this producer's tag after
    // completion. Only ever-unsafe producers are interesting — on the
    // unprotected baseline this records nothing.
    if (inst->everUnsafe && inst->executed &&
        cycle_ > inst->completedAt) {
        counters_.deferredBroadcastDelay.add(cycle_ -
                                             inst->completedAt);
    }
}

void
OooCore::queueBroadcast(const DynInstPtr &inst, Cycle eligible_at)
{
    if (inst->dest == kInvalidPhysReg || inst->broadcasted ||
        inst->pendingBcast) {
        return;
    }
    inst->pendingBcast = true;
    inst->bcastEligibleAt = eligible_at;
    // Sequence numbers are unique, so this is a strict age order.
    const auto pos = std::upper_bound(
        pendingBcast_.begin(), pendingBcast_.end(), inst->seq,
        [](InstSeqNum seq, const DynInstPtr &p) { return seq < p->seq; });
    pendingBcast_.insert(pos, inst);
}

void
OooCore::maybeQueueBroadcast(const DynInstPtr &inst)
{
    if (!inst->squashed && !inst->isUnsafe() && inst->executed)
        queueBroadcast(inst, cycle_ + secFor(inst->tid).extraBroadcastDelay);
}

// --------------------------------------------------------------------------
// Branch resolution / squash
// --------------------------------------------------------------------------

void
OooCore::resolveBranch(const DynInstPtr &inst)
{
    const OpTraits &t = inst->uop.traits();

    // Speculative BTB update at execution; never reverted on squash.
    // This is the covert channel demonstrated in paper §3.
    if (t.isIndirect && !t.isReturn) {
        bp_.btbUpdate(inst->pc, inst->actualNextPc);
        // DIFT: a secret-derived target entered a structure that
        // survives the squash. A leak iff this branch is wrong-path.
        if (dift_ && inst->taint) {
            dift_->recordPending(inst->seq, inst->pc, LeakChannel::kBtb,
                                 "update", inst->actualNextPc, cycle_,
                                 inst->taint);
        }
    }

    // Squash *before* marking this branch resolved: the resolve walk
    // clears unsafe bits and exposes InvisiSpec shadow loads, and must
    // never touch the wrong-path instructions being discarded.
    inst->mispredicted = inst->actualNextPc != inst->predNextPc;
    if (inst->mispredicted) {
        squashAfter(inst->tid, inst->seq, inst->actualNextPc,
                    SquashCause::kBranchMispredict, inst->pc);
        // Recover predictor state to just before this branch, then
        // apply its actual outcome.
        bp_.restore(inst->bpCkpt);
        bp_.applyResolved(inst->uop, inst->pc, inst->actualTaken,
                          inst->actualNextPc);
    }

    if (inst->isSpecBranch())
        branchResolved(inst->tid, inst->seq);
}

void
OooCore::branchResolved(unsigned tid, InstSeqNum seq)
{
    ThreadContext &tc = threads_[tid];
    const bool was_front = !tc.unresolvedBranches.empty() &&
                           tc.unresolvedBranches.front() == seq;
    auto it = std::find(tc.unresolvedBranches.begin(),
                        tc.unresolvedBranches.end(), seq);
    if (it != tc.unresolvedBranches.end())
        tc.unresolvedBranches.erase(it);
    if (was_front)
        ndaClearWalk(tid);
}

void
OooCore::ndaClearWalk(unsigned tid)
{
    ThreadContext &tc = threads_[tid];
    const InstSeqNum boundary = tc.unresolvedBranches.empty()
                                    ? kInvalidSeqNum
                                    : tc.unresolvedBranches.front();
    // IS-Spectre exposes (fills) once no older branch can squash the
    // load. IS-Future must wait until retirement: older *faults* can
    // still squash, so exposing here would leak chosen-code accesses.
    const bool expose =
        secFor(tid).invisiSpec == InvisiSpecMode::kSpectre;
    for (const DynInstPtr &inst : tc.rob) {
        if (inst->seq >= boundary)
            break;
        if (inst->unsafeBranch) {
            inst->unsafeBranch = false;
            noteUnsafeCleared(*inst);
            maybeQueueBroadcast(inst);
        }
        if (expose && inst->shadowLoad && !inst->exposed &&
            inst->effAddrValid) {
            hier_.dataFill(inst->effAddr);
            inst->exposed = true;
            // DIFT: the expose fill is a cache mutation; an older
            // *fault* can still squash this load (IS-Spectre's gap).
            if (dift_ && inst->addrTaint) {
                dift_->recordPending(inst->seq, inst->pc,
                                     LeakChannel::kDCache, "expose-fill",
                                     inst->effAddr, cycle_,
                                     inst->addrTaint);
            }
        }
    }
}

void
OooCore::registerStats(StatsRegistry &reg, const std::string &prefix)
{
    CoreBase::registerStats(reg, prefix);
    bp_.registerStats(reg, prefix + ".bp");
    iq_.registerStats(reg, prefix + ".iq");
    lsq_.registerStats(reg, prefix + ".lsq");
    regs_.registerStats(reg, prefix + ".regfile");
}

void
OooCore::noteUnsafeCleared(DynInst &inst)
{
    if (!inst.everUnsafe || inst.unsafeClearedAt || inst.isUnsafe())
        return;
    inst.unsafeClearedAt = cycle_;
    counters_.unsafeResidency.add(cycle_ - inst.unsafeMarkedAt);
}

void
OooCore::squashAfter(unsigned tid, InstSeqNum keep_seq,
                     Addr redirect_pc, SquashCause cause, Addr cause_pc)
{
    ThreadContext &tc = threads_[tid];
    ++counters_.squashCause[static_cast<int>(cause)];
    if (cause != SquashCause::kSerialize) // SS8 refetch: not a flush
        ++counters_.squashes;
    // CPI stack: until the refetched stream reaches dispatch again,
    // empty commit slots belong to this squash (and to its culprit).
    tc.refetchPending = true;
    tc.refetchCause = refetchCauseOf(cause);
    tc.lastSquashPc = cause_pc;
    // Restore front-end speculative predictor state youngest-first.
    for (auto it = tc.fetchQueue.rbegin(); it != tc.fetchQueue.rend();
         ++it) {
        if ((*it)->isBranch())
            bp_.restore((*it)->bpCkpt);
    }
    tc.fetchQueue.clear();

    while (!tc.rob.empty() && tc.rob.back()->seq > keep_seq) {
        DynInstPtr inst = tc.rob.back();
        inst->squashed = true;
        inst->squashCause = cause;
        if (dift_)
            dift_->onSquash(*inst); // promote pending leak events
        if (retireHook_)
            retireHook_(*inst, cycle_);
        if (inst->dest != kInvalidPhysReg) {
            tc.rmap.restore(inst->uop.rd, inst->prevDest);
            regs_.free(inst->dest);
        }
        if (inst->isBranch())
            bp_.restore(inst->bpCkpt);
        tc.rob.pop_back();
    }
    // The in-flight lists mirror the ROB in age order, so the squashed
    // entries are each list's tail. The eldest unresolved branch
    // changed iff the squash took the list's front.
    const bool unresolved_changed =
        !tc.unresolvedBranches.empty() &&
        tc.unresolvedBranches.front() > keep_seq;
    for (auto *list : {&tc.unresolvedBranches, &tc.fencesInFlight,
                       &tc.wrmsrInFlight}) {
        while (!list->empty() && list->back() > keep_seq)
            list->pop_back();
    }
    lsq_.squashYoungerThan(keep_seq, tid);
    iq_.removeSquashed();
    // NDA deferral/squash and in-flight fills: the squashed loads'
    // MSHR targets are cancelled (nobody wakes), but the fills
    // themselves are orphaned, not cancelled — wrong-path lines still
    // land, which is precisely the squash-surviving channel the
    // policies are measured against. Only this thread's targets drop;
    // the co-resident thread's in-flight loads are untouched.
    hier_.squashLoadTargets(keep_seq, tid);

    // Redirect fetch.
    tc.fetchPc = redirect_pc;
    tc.fetchBlocked = false;
    tc.lastFetchLine = ~Addr{0};

    if (unresolved_changed)
        ndaClearWalk(tid);
}

// --------------------------------------------------------------------------
// Issue / execute
// --------------------------------------------------------------------------

void
OooCore::issueStage()
{
    unsigned issued = 0;
    unsigned mem_issued = 0;
    unsigned muldiv_issued = 0;
    iq_.selectReady(regs_, [&](const DynInstPtr &inst) -> bool {
        if (issued >= cfg_.core.issueWidth)
            return false;
        ThreadContext &tc = threads_[inst->tid];
        const OpTraits &t = inst->uop.traits();
        // lfence-like semantics: younger ops wait for fence retire.
        if (hasOlder(tc.fencesInFlight, inst->seq))
            return false;
        if (t.serializeAtHead &&
            (tc.rob.empty() || tc.rob.front() != inst)) {
            return false;
        }
        if (inst->uop.op == Opcode::kRdMsr &&
            hasOlder(tc.wrmsrInFlight, inst->seq)) {
            return false;
        }
        if (inst->uop.isMemory() && mem_issued >= cfg_.core.memPorts)
            return false;
        // Multiplier/divider port contention (SMoTherSpectre
        // substrate): with mulDivPorts > 0 the long-latency unit has
        // limited issue bandwidth shared by both hardware threads.
        // 0 (the default) models fully pipelined units — no limit.
        if (cfg_.core.mulDivPorts > 0 &&
            (t.latency == LatencyClass::kMul ||
             t.latency == LatencyClass::kDiv) &&
            muldiv_issued >= cfg_.core.mulDivPorts) {
            return false;
        }

        bool rejected = false;
        executeInst(inst, mem_issued, muldiv_issued, rejected);
        if (rejected)
            return false;
        ++issued;
        inst->issued = true;
        inst->issuedAt = cycle_;
        counters_.dispatchToIssue.add(cycle_ - inst->dispatchedAt);
        return true;
    });
}

void
OooCore::executeInst(const DynInstPtr &inst, unsigned &mem_issued,
                     unsigned &muldiv_issued, bool &rejected)
{
    const MicroOp &uop = inst->uop;
    const OpTraits &t = uop.traits();
    const RegVal a = t.readsRs1 ? srcValue(inst->src1) : 0;
    const RegVal b = t.readsRs2 ? srcValue(inst->src2) : 0;

    rejected = false;

    // DIFT: the result taint defaults to the merge of the operands
    // read here; loads and MSR reads refine it below. A store's data
    // register (src2) is read at commit, not here — its taint is
    // sampled then.
    if (dift_) {
        TaintWord in = 0;
        if (t.readsRs1)
            in |= dift_->regTaint(inst->src1);
        if (t.readsRs2 && !uop.isStore())
            in |= dift_->regTaint(inst->src2);
        inst->taint = in;
    }

    if (t.isBranch) {
        if (t.hasDest)
            inst->result = inst->pc + 1; // link value
        if (t.isCondBranch)
            inst->actualTaken = evalCondBranch(uop.op, a, b);
        else
            inst->actualTaken = true;
        inst->actualNextPc = evalNextPc(uop, inst->pc, a, b);
        scheduleCompletion(inst, 1);
        return;
    }

    switch (uop.op) {
      case Opcode::kLoad:
        if (!executeLoad(inst)) {
            rejected = true;
            return;
        }
        ++mem_issued;
        return;
      case Opcode::kStore: {
        // Address phase only (split store micro-ops): the data
        // register is read at commit, once its producer broadcast.
        inst->effAddr = a + static_cast<Addr>(uop.imm);
        inst->addrTaint = inst->taint;
        if (!mem_.accessAllowed(inst->effAddr, uop.size, CpuMode::kUser))
            inst->fault = FaultType::kPrivilegedStore;
        ++mem_issued;
        scheduleCompletion(inst, 1); // address resolution
        return;
      }
      case Opcode::kClflush: {
        const Addr addr = a + static_cast<Addr>(uop.imm);
        hier_.flushLine(addr);
        // DIFT: an eviction keyed by a secret is as observable as a
        // fill (Flush+Flush-style transmit).
        if (dift_ && inst->taint) {
            inst->addrTaint = inst->taint;
            dift_->recordPending(inst->seq, inst->pc,
                                 LeakChannel::kDCache, "evict", addr,
                                 cycle_, inst->taint);
        }
        scheduleCompletion(inst, 1);
        return;
      }
      case Opcode::kPrefetch: {
        const Addr addr = a + static_cast<Addr>(uop.imm);
        const MemRequestResult res = hier_.dataRequest(
            addr, cycle_, inst->seq, MshrTargetKind::kPrefetch, inst->tid);
        if (res.rejected()) {
            // Real prefetchers drop requests under MSHR pressure; the
            // hint completes with no cache-state change.
            scheduleCompletion(inst, 1);
            return;
        }
        if (dift_ && inst->taint) {
            inst->addrTaint = inst->taint;
            dift_->recordPending(inst->seq, inst->pc,
                                 LeakChannel::kDCache,
                                 res.level != HitLevel::kL1
                                     ? "fill" : "lru-touch",
                                 addr, cycle_, inst->taint);
        }
        scheduleCompletion(inst, 1);
        return;
      }
      case Opcode::kRdMsr: {
        // Out-of-range indices fault like privileged ones; the
        // short-circuit keeps the mask shift defined and msrs[] in
        // bounds (matching the interpreter oracle).
        const unsigned idx = static_cast<unsigned>(uop.imm);
        const bool out_of_range =
            idx >= static_cast<unsigned>(kNumMsrRegs);
        const bool privileged =
            out_of_range || (prog_.privilegedMsrMask & (1u << idx));
        const bool flaw = secFor(inst->tid).meltdownFlaw;
        if (privileged) {
            inst->fault = FaultType::kPrivilegedMsr;
            // The Meltdown-class implementation flaw: the value still
            // propagates speculatively (paper §4.3 / LazyFP). An
            // out-of-range index has no architectural MSR behind it,
            // so even flawed silicon forwards 0.
            inst->result = flaw && !out_of_range
                               ? threads_[inst->tid].msrs[idx]
                               : 0;
        } else {
            inst->result = threads_[inst->tid].msrs[idx];
        }
        // DIFT: taint follows the value actually forwarded — fixed
        // silicon forwards 0, so nothing secret propagates.
        if (dift_) {
            const TaintWord vt =
                out_of_range || (privileged && !flaw)
                    ? 0 : dift_->msrTaint(idx);
            inst->taint = vt;
            if (vt)
                dift_->noteAccess(vt, inst->pc, cycle_);
        }
        scheduleCompletion(inst, 1);
        return;
      }
      case Opcode::kWrMsr: {
        const unsigned idx = static_cast<unsigned>(uop.imm);
        if (idx >= static_cast<unsigned>(kNumMsrRegs) ||
            (prog_.privilegedMsrMask & (1u << idx)))
            inst->fault = FaultType::kPrivilegedMsr;
        inst->storeData = a; // applied at completion
        scheduleCompletion(inst, 1);
        return;
      }
      case Opcode::kRdTsc:
        inst->result = cycle_;
        scheduleCompletion(inst, 1);
        return;
      case Opcode::kFence:
      case Opcode::kSpecOff:
      case Opcode::kSpecOn:
        scheduleCompletion(inst, 1);
        return;
      default:
        inst->result = evalAlu(uop.op, a, b, uop.imm);
        if (t.latency == LatencyClass::kMul ||
            t.latency == LatencyClass::kDiv) {
            ++muldiv_issued;
            // DIFT port-contention channel: a tainted op occupying a
            // *contended* long-latency port modulates the co-resident
            // thread's issue timing — observable cross-thread, and it
            // survives this op's squash (SMoTherSpectre).
            if (dift_ && inst->taint && numThreads_ > 1 &&
                cfg_.core.mulDivPorts > 0) {
                dift_->recordPending(inst->seq, inst->pc,
                                     LeakChannel::kPortContention,
                                     "port-busy", inst->pc, cycle_,
                                     inst->taint);
            }
        }
        scheduleCompletion(inst, opLatencyCycles(uop.op));
        return;
    }
}

bool
OooCore::executeLoad(const DynInstPtr &inst)
{
    const MicroOp &uop = inst->uop;
    const RegVal base = srcValue(inst->src1);
    const Addr addr = base + static_cast<Addr>(uop.imm);
    const SecurityConfig &sec = secFor(inst->tid);

    const StoreSearchResult search =
        lsq_.searchStores(inst->seq, addr, uop.size, regs_, inst->tid);
    inst->mshrRejected = false;
    if (search.mustStall)
        return false; // partial overlap: retry next cycle

    inst->effAddr = addr;
    inst->effAddrValid = true;
    inst->bypassedStores = search.bypassedStores;
    if (dift_)
        inst->addrTaint = dift_->regTaint(inst->src1);

    // Permission check (Meltdown substrate).
    const bool allowed =
        mem_.accessAllowed(addr, uop.size, CpuMode::kUser);
    if (!allowed)
        inst->fault = FaultType::kPrivilegedLoad;

    unsigned latency;
    if (search.forward) {
        inst->result = search.value;
        latency = hier_.params().l1d.hitLatency;
        // DIFT: taint rides the forwarded store data; a tainted
        // *address* also taints the value (the selection of what to
        // read is itself secret-dependent — the BTB channel's flow).
        // If the store turns out to be wrong-path, its squash
        // promotes this into an SQ-forward leak event.
        if (dift_) {
            const DynInst &st = *search.forwardStore;
            const TaintWord vt =
                dift_->regTaint(st.src2) | inst->addrTaint;
            inst->taint = vt;
            if (vt) {
                dift_->noteAccess(vt, inst->pc, cycle_);
                dift_->recordPending(st.seq, st.pc,
                                     LeakChannel::kSqForward, "forward",
                                     addr, cycle_, vt);
            }
        }
    } else {
        RegVal data = mem_.read(addr, uop.size);
        if (!allowed && !sec.meltdownFlaw)
            data = 0; // fixed hardware: no forwarding of faulting data
        inst->result = data;

        // DIFT: value taint comes from the accessed bytes, plus the
        // address taint (what was read was chosen by a secret — the
        // flow the BTB channel transmits). Fixed silicon forwards a
        // clean zero, which depends on nothing.
        if (dift_) {
            TaintWord vt =
                dift_->memTaint(addr, uop.size) | inst->addrTaint;
            if (!allowed && !sec.meltdownFlaw)
                vt = 0;
            inst->taint = vt;
            if (vt)
                dift_->noteAccess(vt, inst->pc, cycle_);
        }

        // InvisiSpec: speculative loads access the hierarchy
        // invisibly (no fills / LRU updates).
        bool shadow = false;
        switch (sec.invisiSpec) {
          case InvisiSpecMode::kOff:
            break;
          case InvisiSpecMode::kSpectre:
            shadow = hasOlder(threads_[inst->tid].unresolvedBranches,
                              inst->seq);
            break;
          case InvisiSpecMode::kFuture: {
            const ThreadContext &tc = threads_[inst->tid];
            shadow = tc.rob.empty() || tc.rob.front() != inst;
            break;
          }
        }
        const MemRequestResult res =
            shadow ? hier_.dataPeek(addr)
                   : hier_.dataRequest(addr, cycle_, inst->seq,
                                       MshrTargetKind::kLoad, inst->tid);
        if (res.rejected()) {
            // MSHR full: the load stays in the issue queue and retries
            // next cycle, exactly like a partial-overlap store stall.
            // Nothing was mutated, so the retry recomputes from
            // scratch.
            inst->effAddrValid = false;
            inst->bypassedStores.clear();
            inst->mshrRejected = true;
            return false;
        }
        if (shadow) {
            inst->shadowLoad = true;
            inst->peekLevel = res.level;
        } else {
            // DIFT MSHR-contention channel: a secret-indexed miss
            // occupied a *shared* MSHR entry — backpressure the
            // co-resident thread can time, and the occupancy is not
            // reverted by this load's squash. Only exists with MSHRs.
            if (dift_ && inst->addrTaint && numThreads_ > 1 &&
                hier_.mshrEnabled() && res.status != MemReqStatus::kHit) {
                dift_->recordPending(inst->seq, inst->pc,
                                     LeakChannel::kMshrContention,
                                     "mshr-occupy", addr, cycle_,
                                     inst->addrTaint);
            }
            // DIFT: a secret-indexed access moved cache state (a fill,
            // or an LRU touch on a hit) — observable if squashed.
            if (dift_ && inst->addrTaint) {
                dift_->recordPending(inst->seq, inst->pc,
                                     LeakChannel::kDCache,
                                     res.level != HitLevel::kL1
                                         ? "fill" : "lru-touch",
                                     addr, cycle_, inst->addrTaint);
            }
        }
        latency = res.latency;
        if (res.offChip()) {
            ++outstandingMisses_;
            inst->countedMiss = true;
        }
    }

    // NDA Bypass Restriction (paper §5.2): the load stays unsafe
    // until every bypassed store resolves its address.
    if (sec.bypassRestriction && !inst->bypassedStores.empty()) {
        inst->unsafeBypass = true;
        if (!inst->everUnsafe) {
            inst->everUnsafe = true;
            inst->unsafeMarkedAt = cycle_;
        }
    }

    scheduleCompletion(inst, latency);
    return true;
}

void
OooCore::scheduleCompletion(const DynInstPtr &inst, unsigned latency)
{
    completionEvents_.emplace(cycle_ + std::max(1u, latency), inst);
}

// --------------------------------------------------------------------------
// Dispatch / rename
// --------------------------------------------------------------------------

void
OooCore::dispatchStage()
{
    // Shared rename/dispatch bandwidth, same rotation order as
    // commit. Each thread keeps its own block reason (CPI stack); a
    // thread reached after the budget is spent lost it to the
    // co-runners ahead of it.
    unsigned budget = cfg_.core.dispatchWidth;
    for (unsigned k = 0; k < numThreads_; ++k) {
        const unsigned tid = rotatedTid(k);
        ThreadContext &tc = threads_[tid];
        if (budget == 0) {
            tc.dispatchBlock = StallCause::kDispatchShare;
            continue;
        }
        tc.dispatchBlock = StallCause::kFrontend;
        while (budget > 0) {
            if (tc.fetchQueue.empty())
                break;
            DynInstPtr inst = tc.fetchQueue.front();
            if (cycle_ < inst->fetchedAt + cfg_.core.frontendDelay)
                break;
            if (robOccupancy() >= cfg_.core.robEntries) {
                tc.dispatchBlock = StallCause::kRobFull;
                break;
            }
            // With SMT the IQ is statically partitioned: a thread may
            // hold at most its share of entries. A fully shared queue
            // lets one thread's long-latency burst (e.g. multiplies
            // draining through a single port) park in every slot and
            // lock the co-resident thread out of dispatch wholesale.
            if (iq_.full() ||
                (numThreads_ > 1 &&
                 iq_.occupancyOf(tid) >=
                     std::max(1u, cfg_.core.iqEntries / numThreads_))) {
                tc.dispatchBlock = StallCause::kIqFull;
                break;
            }
            if ((inst->isLoad() && lsq_.lqFull()) ||
                (inst->isStore() && lsq_.sqFull())) {
                tc.dispatchBlock = StallCause::kLsqFull;
                break;
            }
            if (inst->uop.traits().hasDest && !regs_.hasFree(tid)) {
                tc.dispatchBlock = StallCause::kRobFull;
                break;
            }
            tc.fetchQueue.pop_front();
            tc.refetchPending = false; // refilled pipe reached dispatch
            --budget;

            inst->seq = ++nextSeq_;
            inst->dispatchedAt = cycle_;

            const OpTraits &t = inst->uop.traits();
            if (t.readsRs1)
                inst->src1 = tc.rmap.lookup(inst->uop.rs1);
            if (t.readsRs2)
                inst->src2 = tc.rmap.lookup(inst->uop.rs2);
            if (t.hasDest) {
                inst->dest = regs_.alloc(tid);
                inst->prevDest =
                    tc.rmap.rename(inst->uop.rd, inst->dest);
            }

            // NDA unsafe marking at dispatch (paper §5.1/§5.2/§5.3),
            // per-thread policy: an unprotected context marks nothing
            // even while its co-resident victim defers everything.
            const SecurityConfig &sec = secFor(tid);
            if (!tc.unresolvedBranches.empty() &&
                sec.marksUnsafeUnderBranch(inst->uop)) {
                inst->unsafeBranch = true;
            }
            if (sec.loadRestriction && inst->isLoadLike())
                inst->unsafeLoad = true;
            if (inst->isUnsafe()) {
                inst->everUnsafe = true;
                inst->unsafeMarkedAt = cycle_;
                ++counters_.unsafeMarked;
            }

            if (inst->isSpecBranch())
                tc.unresolvedBranches.push_back(inst->seq);
            if (inst->uop.op == Opcode::kFence)
                tc.fencesInFlight.push_back(inst->seq);
            if (inst->uop.op == Opcode::kWrMsr)
                tc.wrmsrInFlight.push_back(inst->seq);

            tc.rob.push_back(inst);
            if (inst->isLoad())
                lsq_.insertLoad(inst);
            if (inst->isStore())
                lsq_.insertStore(inst);

            if (inst->uop.op == Opcode::kNop ||
                inst->uop.op == Opcode::kHalt) {
                inst->issued = true;
                inst->executed = true;
                inst->completedAt = cycle_;
            } else {
                iq_.insert(inst);
            }
        }
    }
}

// --------------------------------------------------------------------------
// Fetch
// --------------------------------------------------------------------------

unsigned
OooCore::pickFetchThread() const
{
    const auto fetchable = [this](unsigned t) {
        const ThreadContext &tc = threads_[t];
        return !tc.halted && !tc.fetchBlocked &&
               cycle_ >= tc.icacheStallUntil &&
               tc.fetchQueue.size() < cfg_.core.fetchQueueEntries;
    };
    if (cfg_.core.smtFetchPolicy == SmtFetchPolicy::kRoundRobin ||
        numThreads_ == 1) {
        for (unsigned k = 0; k < numThreads_; ++k) {
            if (fetchable(rotatedTid(k)))
                return rotatedTid(k);
        }
        return numThreads_;
    }
    // ICOUNT: the thread with the fewest in-flight instructions
    // (front-end queue + ROB) gets the fetch slot; ties go to
    // rotation order.
    unsigned best = numThreads_;
    std::size_t best_count = 0;
    for (unsigned k = 0; k < numThreads_; ++k) {
        const unsigned t = rotatedTid(k);
        if (!fetchable(t))
            continue;
        const std::size_t count =
            threads_[t].fetchQueue.size() + threads_[t].rob.size();
        if (best == numThreads_ || count < best_count) {
            best = t;
            best_count = count;
        }
    }
    return best;
}

void
OooCore::fetchStage()
{
    // One thread owns the fetch engine per cycle (fine-grained SMT
    // front end). A single-thread core always picks thread 0, taking
    // exactly the pre-SMT path.
    const unsigned tid = pickFetchThread();
    if (tid >= numThreads_)
        return;
    fetchThread(tid);
}

void
OooCore::fetchThread(unsigned tid)
{
    ThreadContext &tc = threads_[tid];
    for (unsigned n = 0; n < cfg_.core.fetchWidth; ++n) {
        if (tc.fetchQueue.size() >= cfg_.core.fetchQueueEntries)
            break;
        if (!prog_.validPc(tc.fetchPc)) {
            // Wrong-path fetch ran off the program: models dispatch
            // stalling on an unknown opcode until squash redirects.
            tc.fetchBlocked = true;
            break;
        }

        const Addr fetch_addr = pcToFetchAddr(tc.fetchPc);
        const Addr line = fetch_addr / kLineSize;
        if (line != tc.lastFetchLine) {
            const MemRequestResult req =
                hier_.instRequest(fetch_addr, cycle_);
            if (req.rejected()) {
                // I-side MSHR full (only reachable after a squash
                // raced an in-flight line): retry next cycle.
                tc.icacheStallUntil = cycle_ + 1;
                break;
            }
            tc.lastFetchLine = line;
            if (req.status != MemReqStatus::kHit) {
                tc.icacheStallUntil = cycle_ + req.latency;
                break;
            }
        }

        DynInstPtr inst = pool_.create();
        inst->uop = prog_.at(tc.fetchPc);
        inst->pc = tc.fetchPc;
        inst->tid = tid;
        inst->fetchedAt = cycle_;

        Addr next = tc.fetchPc + 1;
        if (inst->uop.isBranch()) {
            if (tc.specDisabled && inst->uop.isSpeculativeBranch()) {
                // Speculation-off window (paper SS8, Listing 4): do
                // not predict; fetch stalls until the branch resolves
                // and redirects (the sentinel never matches).
                inst->bpCkpt = bp_.capture();
                inst->predNextPc = ~Addr{0};
                tc.fetchQueue.push_back(inst);
                tc.fetchBlocked = true;
                break;
            }
            const BranchPrediction pred =
                bp_.predict(inst->uop, tc.fetchPc);
            inst->bpCkpt = pred.ckpt;
            next = pred.nextPc;
        }
        inst->predNextPc = next;
        tc.fetchQueue.push_back(inst);

        if (inst->uop.op == Opcode::kHalt) {
            tc.fetchBlocked = true;
            break;
        }
        const bool redirected = next != tc.fetchPc + 1;
        tc.fetchPc = next;
        if (redirected)
            break; // at most one taken control transfer per cycle
    }
}

} // namespace nda
