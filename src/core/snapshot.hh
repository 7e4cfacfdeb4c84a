/**
 * @file
 * Whole-machine warming checkpoint: the architectural state plus the
 * structural (squash-surviving) micro-architectural state every core
 * model can be seeded with — cache tags/LRU and predictor tables.
 *
 * Built once per (workload, sample) by fast-forwarding the functional
 * interpreter with warming attached (SMARTS, paper §6.1), then
 * restored into each profile's core (CoreBase::restoreCheckpoint)
 * instead of re-warming per profile. A snapshot records the geometry
 * it was built with; restoring requires structural compatibility
 * (structurallyCompatible), and the harness falls back to building a
 * per-window checkpoint when a config's geometry differs — so sweeps
 * that vary cache or predictor geometry still work, just without
 * sharing.
 */

#ifndef NDASIM_CORE_SNAPSHOT_HH
#define NDASIM_CORE_SNAPSHOT_HH

#include "branch/predictor_unit.hh"
#include "core/arch_state.hh"
#include "mem/hierarchy.hh"

namespace nda {

struct Program;
struct SimConfig;

/** Architectural + structural-warming state of one machine. */
struct SimSnapshot {
    ArchState arch;

    /**
     * Architectural state of SMT hardware threads 1..N-1, in thread
     * order. Empty for a single-thread machine — and serialized only
     * when non-empty, so smt=1 checkpoint files are byte-identical to
     * the pre-SMT schema. The entries' `mem` maps are empty: memory
     * is shared and lives in `arch.mem`.
     */
    std::vector<ArchState> extraThreads;

    bool hasMem = false;
    MemHierarchy::Snapshot mem;
    HierarchyParams memParams;       ///< geometry the tags assume

    bool hasPredictor = false;
    PredictorUnit::Snapshot predictor;
    PredictorParams bpParams;        ///< geometry the tables assume

    /**
     * True iff every structural snapshot carried here can be restored
     * into a machine built from `cfg`: cache geometry (size, ways,
     * line) and predictor geometry (table/history bits, BTB shape,
     * RAS depth) must match. Latencies are irrelevant — they never
     * influence which tags/counters warming produces.
     */
    bool structurallyCompatible(const SimConfig &cfg) const;

    /**
     * Bit-identity across the whole machine image: architectural
     * state, warming images (tags/LRU/counters, predictor tables),
     * and the geometry they assume. This is the referee the lockstep
     * test uses to hold the threaded interpreter to step().
     */
    bool operator==(const SimSnapshot &other) const;
};

class TaintEngine;
struct WarmingWork;

/**
 * Fast-forward `ff_insts` instructions of `prog` on the interpreter
 * with functional warming into structures of the given geometry, and
 * return the resulting checkpoint. Deterministic: same program,
 * geometry, and instruction count always yield the same snapshot. A
 * program that halts first yields its halted snapshot (arch.halted),
 * and a core restored from it is halted.
 *
 * `dift`, if non-null, is attached for the fast-forward so the
 * checkpoint carries architectural taint. `warm_work`, if non-null,
 * receives the functional-warming work the fast-forward performed
 * (added to, not overwritten — callers aggregate across builds).
 */
SimSnapshot buildWarmCheckpoint(const Program &prog,
                                const HierarchyParams &mem_params,
                                const PredictorParams &bp_params,
                                std::uint64_t ff_insts,
                                TaintEngine *dift = nullptr,
                                WarmingWork *warm_work = nullptr);

/**
 * Extend-from-snapshot mode of the same recipe: resume the predecoded
 * interpreter (with functional warming, and `dift` if non-null) from
 * `base` and run until `target_insts` total instructions have
 * retired, then snapshot again.
 *
 * The chaining invariant — enforced by tests/test_ckpt.cc — is that
 * extension composes exactly: for any split k,
 *
 *   extend(build(prog, k), n) == build(prog, n)        (n > k)
 *
 * bit-for-bit under SimSnapshot::operator==. This is what turns
 * `--fastforward` into a *stride*: a W-workload grid pays one
 * fast-forward chain per workload, with checkpoint k+1 built from
 * checkpoint k instead of from the program entry.
 *
 * `base` must carry warming state (hasMem && hasPredictor) and
 * `target_insts` must be >= the snapshot's instruction count; both
 * are fatal misuses, not recoverable conditions.
 */
SimSnapshot extendWarmCheckpoint(const Program &prog,
                                 const SimSnapshot &base,
                                 std::uint64_t target_insts,
                                 TaintEngine *dift = nullptr,
                                 WarmingWork *warm_work = nullptr);

} // namespace nda

#endif // NDASIM_CORE_SNAPSHOT_HH
