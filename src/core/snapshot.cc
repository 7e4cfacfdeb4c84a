#include "core/snapshot.hh"

#include "common/log.hh"
#include "core/core_config.hh"
#include "isa/interpreter.hh"

namespace nda {

namespace {

bool
sameGeometry(const CacheParams &a, const CacheParams &b)
{
    return a.sizeBytes == b.sizeBytes && a.ways == b.ways &&
           a.lineBytes == b.lineBytes;
}

bool
sameGeometry(const PredictorParams &a, const PredictorParams &b)
{
    return a.direction.tableBits == b.direction.tableBits &&
           a.direction.historyBits == b.direction.historyBits &&
           a.btb.entries == b.btb.entries && a.btb.ways == b.btb.ways &&
           a.btb.tagBits == b.btb.tagBits &&
           a.rasEntries == b.rasEntries;
}

} // namespace

bool
SimSnapshot::operator==(const SimSnapshot &other) const
{
    if (!(arch == other.arch))
        return false;
    if (extraThreads != other.extraThreads)
        return false;
    if (hasMem != other.hasMem || hasPredictor != other.hasPredictor)
        return false;
    if (hasMem &&
        !(mem == other.mem &&
          sameGeometry(memParams.l1i, other.memParams.l1i) &&
          sameGeometry(memParams.l1d, other.memParams.l1d) &&
          sameGeometry(memParams.l2, other.memParams.l2))) {
        return false;
    }
    if (hasPredictor && !(predictor == other.predictor &&
                          sameGeometry(bpParams, other.bpParams))) {
        return false;
    }
    return true;
}

bool
SimSnapshot::structurallyCompatible(const SimConfig &cfg) const
{
    if (hasMem && !(sameGeometry(memParams.l1i, cfg.memory.l1i) &&
                    sameGeometry(memParams.l1d, cfg.memory.l1d) &&
                    sameGeometry(memParams.l2, cfg.memory.l2))) {
        return false;
    }
    if (hasPredictor &&
        !sameGeometry(bpParams, cfg.core.predictor)) {
        return false;
    }
    return true;
}

namespace {

/**
 * Build and extend in one body: set up the warming interpreter, resume
 * it from `base` (or start at the program entry when `base` is null),
 * run to `target_insts` retired instructions, and snapshot it.
 */
SimSnapshot
fastForward(const Program &prog, const HierarchyParams &mem_params,
            const PredictorParams &bp_params, const SimSnapshot *base,
            std::uint64_t target_insts, TaintEngine *dift,
            WarmingWork *warm_work)
{
    Interpreter interp(prog);
    MemHierarchy hier(mem_params);
    PredictorUnit bp(bp_params);
    interp.attachWarming(&hier, &bp);
    if (dift)
        interp.attachDift(dift);
    if (base) {
        // Attachments first, so restore() re-applies captured taint
        // to the DIFT engine.
        interp.restore(base->arch);
        hier.restore(base->mem);
        bp.restore(base->predictor);
    }

    const std::uint64_t start = interp.instCount();
    const std::uint64_t executed = interp.runTo(target_insts);
    if (warm_work)
        *warm_work += interp.warmingWork();
    NDA_ASSERT(!interp.halted(),
               "program halted after %llu of %llu fast-forward "
               "instructions — window placement runs off the end",
               static_cast<unsigned long long>(executed),
               static_cast<unsigned long long>(target_insts - start));

    SimSnapshot snap;
    snap.arch = interp.save();
    snap.hasMem = true;
    snap.mem = hier.save();
    snap.memParams = mem_params;
    snap.hasPredictor = true;
    snap.predictor = bp.save();
    snap.bpParams = bp_params;
    return snap;
}

} // namespace

SimSnapshot
buildWarmCheckpoint(const Program &prog,
                    const HierarchyParams &mem_params,
                    const PredictorParams &bp_params,
                    std::uint64_t ff_insts, TaintEngine *dift,
                    WarmingWork *warm_work)
{
    return fastForward(prog, mem_params, bp_params, nullptr, ff_insts,
                       dift, warm_work);
}

SimSnapshot
extendWarmCheckpoint(const Program &prog, const SimSnapshot &base,
                     std::uint64_t target_insts, TaintEngine *dift,
                     WarmingWork *warm_work)
{
    NDA_ASSERT(base.hasMem && base.hasPredictor,
               "extendWarmCheckpoint needs a warming checkpoint "
               "(hasMem && hasPredictor) to resume from");
    NDA_ASSERT(target_insts >= base.arch.instCount,
               "extension target %llu is before the base checkpoint's "
               "%llu retired instructions",
               static_cast<unsigned long long>(target_insts),
               static_cast<unsigned long long>(base.arch.instCount));
    return fastForward(prog, base.memParams, base.bpParams, &base,
                       target_insts, dift, warm_work);
}

} // namespace nda
