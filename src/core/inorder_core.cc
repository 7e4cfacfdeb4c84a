#include "core/inorder_core.hh"

#include "common/log.hh"
#include "core/snapshot.hh"
#include "dift/taint_engine.hh"
#include "obs/hotspot_profiler.hh"

namespace nda {

namespace {

/** Register-writing ALU ops (the evalAlu set): they pay an execute
 *  latency on top of the fetch. */
bool
isAluOp(Opcode op)
{
    return op >= Opcode::kMovImm && op <= Opcode::kCmpLtu;
}

} // namespace

InOrderCore::InOrderCore(Program prog, const SimConfig &cfg,
                         const SimSnapshot *start)
    : interp_(std::move(prog), ArchState{}), hier_(cfg.memory)
{
    // interp_ starts blank: its one state load is applyStart's.
    applyStart(interp_.program(), start);
}

bool
InOrderCore::tick()
{
    if (interp_.halted())
        return false;
    ++cycle_;
    ++counters_.cycles;
    // MSHR mode: fills land while the core is stalled on them, so
    // mshrEntries = 1 reproduces the eager blocking numbers. The +1
    // matches the eager charging convention: a miss charged `lat` at
    // cycle c overlaps its commit cycle (cost += lat - 1), so the
    // next access to that line happens at c + lat - 1 and must see
    // the fill scheduled for c + lat — drain everything due by the
    // END of this cycle.
    hier_.advance(cycle_ + 1);
    if (cycle_ < busyUntil_) {
        accountCycle(stallCause_, stallPc_);
        return true;
    }
    const Addr inst_pc = interp_.pc();
    const std::uint64_t before = committed_;
    const Cycle cost = step();
    committed_ = interp_.instCount();
    busyUntil_ = cycle_ + cost;
    stallPc_ = inst_pc; // subsequent stall cycles pay for this inst
    // The halting edge (invalid PC) retires nothing — its one slot is
    // a window artifact, not a stall.
    accountCycle(committed_ > before ? StallCause::kCommit
                                     : StallCause::kIdle,
                 inst_pc);
    return !interp_.halted();
}

void
InOrderCore::accountCycle(StallCause cause, Addr pc)
{
    ++counters_.cycleClass[static_cast<int>(cycleClassOf(cause))];
    ++counters_.slots[static_cast<int>(cause)];
    if (hotspots_)
        hotspots_->record(pc, cause, 1);
}

TaintWord
InOrderCore::archRegTaint(RegId r) const
{
    return dift_ ? dift_->archRegTaint(r) : 0;
}

void
InOrderCore::saveCheckpoint(SimSnapshot &out) const
{
    out = SimSnapshot{};
    out.arch = interp_.save();
    out.arch.lastFetchLine = lastFetchLine_;
    out.hasMem = true;
    out.mem = hier_.save();
    out.memParams = hier_.params();
    // No predictor: this core never speculates.
}

void
InOrderCore::restoreCheckpoint(const SimSnapshot &snap)
{
    NDA_ASSERT(cycle_ == 0,
               "checkpoints restore into freshly constructed cores");
    interp_.restore(snap.arch);
    committed_ = interp_.instCount();
    lastFetchLine_ = snap.arch.lastFetchLine;
    if (snap.hasMem)
        hier_.restore(snap.mem);
}

Cycle
InOrderCore::step()
{
    const Program &prog = interp_.program();
    const Addr pc = interp_.pc();
    if (!prog.validPc(pc)) {
        interp_.step(); // halts: the pc left the program
        return 0;
    }
    const MicroOp &uop = prog.at(pc);
    const OpTraits &t = uop.traits();
    // Read before the step: a load may overwrite its own base register.
    const Addr addr =
        (t.readsRs1 ? interp_.reg(uop.rs1) : 0) + static_cast<Addr>(uop.imm);

    // --- fetch cost -------------------------------------------------------
    // Blocking semantics through the request API: the stall covers
    // the fill latency, so at most this one fetch miss (plus the
    // step's own data miss) is ever in flight and rejection cannot
    // happen.
    Cycle cost = 0; // the commit cycle itself is charged by tick()
    stallCause_ = StallCause::kFrontend;
    const Addr fetch_addr = pcToFetchAddr(pc);
    const MemRequestResult fetch = hier_.instRequest(fetch_addr, cycle_);
    NDA_ASSERT(!fetch.rejected(),
               "blocking core overflowed the I-side MSHR file");
    cost += fetch.latency - 1;
    lastFetchLine_ = fetch_addr / kLineSize;

    const StepResult res = interp_.step();
    ++counters_.committedInsts;
    ++counters_.ilpCycles;
    ++counters_.ilpAccum;
    if (res == StepResult::kFaulted) {
        ++counters_.squashes;
        ++counters_.faults;
        return cost;
    }

    if (t.isLoad || t.isStore) {
        // seq carries the commit index; nothing here squashes.
        const MemRequestResult req = hier_.dataRequest(
            addr, cycle_, static_cast<InstSeqNum>(interp_.instCount()),
            t.isLoad ? MshrTargetKind::kLoad : MshrTargetKind::kStore);
        NDA_ASSERT(!req.rejected(),
                   "blocking core overflowed the D-side MSHR file");
        stallCause_ = StallCause::kMemLatency;
        cost += req.latency;
        if (t.isLoad) {
            ++counters_.loads;
            if (req.offChip()) {
                counters_.mlpCycles += req.latency;
                counters_.mlpAccum += req.latency;
            }
        } else {
            ++counters_.stores;
        }
    } else if (uop.op == Opcode::kClflush) {
        hier_.flushLine(addr);
    } else if (uop.op == Opcode::kPrefetch) {
        hier_.dataAccess(addr);
    } else if (uop.op == Opcode::kRdTsc) {
        interp_.setReg(uop.rd, cycle_); // real time, not the inst count
    } else if (t.isCondBranch) {
        ++counters_.condBranches;
    } else if (t.isIndirect) {
        ++counters_.indirectBranches;
    } else if (isAluOp(uop.op)) {
        stallCause_ = StallCause::kExecLatency;
        cost += opLatencyCycles(uop.op) - 1;
    }
    return cost;
}

} // namespace nda
