#include "branch/predictor_unit.hh"

#include "common/log.hh"

namespace nda {

PredictorUnit::PredictorUnit(const PredictorParams &p)
    : direction_(p.direction), btb_(p.btb), ras_(p.rasEntries)
{
}

BranchPrediction
PredictorUnit::predict(const MicroOp &uop, Addr pc)
{
    const OpTraits &t = uop.traits();
    NDA_ASSERT(t.isBranch, "predict() on non-branch %s",
               t.mnemonic.data());

    BranchPrediction pred;
    pred.ckpt.history = direction_.history();
    pred.ckpt.ras = ras_.checkpoint();

    if (t.isCondBranch) {
        pred.taken = direction_.predict(pc);
        pred.nextPc = pred.taken ? static_cast<Addr>(uop.imm) : pc + 1;
        return pred;
    }

    if (!t.isIndirect) {
        // Direct jmp/call: target known at decode, never mispredicts.
        pred.taken = true;
        pred.nextPc = static_cast<Addr>(uop.imm);
        if (t.isCall)
            ras_.push(pc + 1);
        return pred;
    }

    // Indirect branches.
    pred.taken = true;
    if (t.isReturn) {
        pred.nextPc = ras_.pop();
    } else {
        if (auto target = btb_.lookup(pc)) {
            pred.nextPc = *target;
            pred.fromBtb = true;
        } else {
            // No target available: predict fall-through; the resulting
            // mispredict models the front-end stalling until resolve.
            pred.nextPc = pc + 1;
            pred.btbMiss = true;
        }
        if (t.isCall)
            ras_.push(pc + 1);
    }
    return pred;
}

BpCheckpoint
PredictorUnit::capture() const
{
    BpCheckpoint ckpt;
    ckpt.history = direction_.history();
    ckpt.ras = ras_.checkpoint();
    return ckpt;
}

void
PredictorUnit::restore(const BpCheckpoint &ckpt)
{
    direction_.restoreHistory(ckpt.history);
    ras_.restore(ckpt.ras);
}

void
PredictorUnit::applyResolved(const MicroOp &uop, Addr pc, bool taken,
                             Addr next_pc)
{
    (void)next_pc;
    const OpTraits &t = uop.traits();
    if (t.isCondBranch) {
        direction_.pushHistory(taken);
        return;
    }
    if (t.isReturn) {
        ras_.pop();
        return;
    }
    if (t.isCall)
        ras_.push(pc + 1);
}

void
PredictorUnit::commitUpdate(const MicroOp &uop, Addr pc, bool taken,
                            std::uint64_t history_at_predict)
{
    if (uop.traits().isCondBranch)
        direction_.update(pc, taken, history_at_predict);
}

void
PredictorUnit::warmResolved(const MicroOp &uop, Addr pc, bool taken,
                            Addr actual)
{
    const BranchPrediction pred = predict(uop, pc);
    const OpTraits &t = uop.traits();
    if (t.isIndirect && !t.isReturn)
        btbUpdate(pc, actual);
    if (pred.nextPc != actual) {
        restore(pred.ckpt);
        applyResolved(uop, pc, taken, actual);
    }
    commitUpdate(uop, pc, taken, pred.ckpt.history);
}

void
PredictorUnit::reset()
{
    direction_.reset();
    btb_.reset();
    ras_.reset();
}

void
PredictorUnit::registerStats(StatsRegistry &reg,
                             const std::string &prefix) const
{
    direction_.registerStats(reg, prefix + ".direction");
    btb_.registerStats(reg, prefix + ".btb");
    ras_.registerStats(reg, prefix + ".ras");
}

} // namespace nda
