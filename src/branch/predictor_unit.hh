/**
 * @file
 * Front-end branch prediction unit: composes the tournament direction
 * predictor, the BTB, and the RAS, and owns the checkpoint/restore
 * protocol used on squash.
 */

#ifndef NDASIM_BRANCH_PREDICTOR_UNIT_HH
#define NDASIM_BRANCH_PREDICTOR_UNIT_HH

#include <cstdint>

#include "branch/btb.hh"
#include "branch/direction_predictor.hh"
#include "branch/ras.hh"
#include "common/types.hh"
#include "isa/microop.hh"

namespace nda {

/** Combined speculative-state checkpoint taken before each branch. */
struct BpCheckpoint {
    std::uint64_t history = 0;
    Ras::Checkpoint ras;
};

/** Outcome of predicting one branch at fetch. */
struct BranchPrediction {
    Addr nextPc = 0;
    bool taken = false;       ///< meaningful for conditional branches
    bool fromBtb = false;     ///< target came from a BTB hit
    bool btbMiss = false;     ///< indirect branch missed in the BTB
    BpCheckpoint ckpt;        ///< state before this branch's updates
};

/** Parameters of the whole predictor unit. */
struct PredictorParams {
    DirectionPredictorParams direction;
    BtbParams btb;
    unsigned rasEntries = 16;
};

/** Fetch-side predictor with squash-recovery support. */
class PredictorUnit
{
  public:
    explicit PredictorUnit(const PredictorParams &p = {});

    /** Complete predictor state (direction tables + BTB + RAS) for
     *  warming checkpoints (core/snapshot.hh). */
    struct Snapshot {
        DirectionPredictor::Snapshot direction;
        Btb::Snapshot btb;
        Ras::Snapshot ras;

        bool operator==(const Snapshot &) const = default;
    };

    Snapshot
    save() const
    {
        return Snapshot{direction_.save(), btb_.save(), ras_.save()};
    }

    /** Restore all three structures; geometry must match (asserted). */
    void
    restore(const Snapshot &snap)
    {
        direction_.restore(snap.direction);
        btb_.restore(snap.btb);
        ras_.restore(snap.ras);
    }

    /**
     * Predict the branch `uop` at `pc` and apply speculative state
     * updates (history shift, RAS push/pop).
     */
    BranchPrediction predict(const MicroOp &uop, Addr pc);

    /** Snapshot current speculative state without predicting (used
     *  for non-predicted branches in speculation-off windows). */
    BpCheckpoint capture() const;

    /** Undo speculative state back to before a branch's predict(). */
    void restore(const BpCheckpoint &ckpt);

    /**
     * After restore() of a resolved-mispredicted branch, re-apply its
     * *actual* outcome so younger fetch sees consistent state.
     */
    void applyResolved(const MicroOp &uop, Addr pc, bool taken,
                       Addr next_pc);

    /** Train the direction tables at branch commit. */
    void commitUpdate(const MicroOp &uop, Addr pc, bool taken,
                      std::uint64_t history_at_predict);

    /**
     * Install pc -> target at branch *execution* (speculative; never
     * reverted — this is the paper's BTB covert channel).
     */
    void btbUpdate(Addr pc, Addr target) { btb_.update(pc, target); }

    /**
     * Functional warming for one branch resolved to `actual`,
     * following the timing cores' correct-path update rules: predict
     * (touches BTB LRU / speculative history / RAS), install an
     * indirect target at execution, recover and re-steer on a
     * mispredict, train the direction tables at commit.
     */
    void warmResolved(const MicroOp &uop, Addr pc, bool taken,
                      Addr actual);

    DirectionPredictor &direction() { return direction_; }
    Btb &btb() { return btb_; }
    Ras &ras() { return ras_; }

    /** Bind direction/btb/ras stats under `prefix`. */
    void registerStats(StatsRegistry &reg,
                       const std::string &prefix) const;

    void reset();

  private:
    DirectionPredictor direction_;
    Btb btb_;
    Ras ras_;
};

} // namespace nda

#endif // NDASIM_BRANCH_PREDICTOR_UNIT_HH
