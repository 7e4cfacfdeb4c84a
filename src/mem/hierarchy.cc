#include "mem/hierarchy.hh"

#include "common/log.hh"

namespace nda {

MemHierarchy::MemHierarchy(const HierarchyParams &params)
    : params_(params), l1i_(params.l1i), l1d_(params.l1d),
      l2_(params.l2),
      mshrI_("mshr_i", params.mshrEntries, params.mshrTargets),
      mshrD_("mshr_d", params.mshrEntries, params.mshrTargets),
      // Sized so the L2 file can never reject a line an L1 file
      // accepted: every pending L2 entry is backed by at least one
      // pending L1 entry.
      mshrL2_("mshr_l2", 2 * params.mshrEntries, params.mshrTargets)
{
    NDA_ASSERT(!mshrEnabled() ||
                   (params_.l1i.lineBytes == params_.l1d.lineBytes &&
                    params_.l1d.lineBytes == params_.l2.lineBytes),
               "MSHR coalescing assumes one line size across levels");
}

AccessResult
MemHierarchy::dataAccess(Addr addr)
{
    if (l1d_.access(addr))
        return {params_.l1d.hitLatency, HitLevel::kL1};
    if (l2_.access(addr))
        return {params_.l2.hitLatency, HitLevel::kL2};
    return {params_.l2.hitLatency + params_.dramLatency, HitLevel::kMemory};
}

AccessResult
MemHierarchy::dataPeek(Addr addr) const
{
    if (l1d_.probe(addr))
        return {params_.l1d.hitLatency, HitLevel::kL1};
    if (l2_.probe(addr))
        return {params_.l2.hitLatency, HitLevel::kL2};
    return {params_.l2.hitLatency + params_.dramLatency, HitLevel::kMemory};
}

void
MemHierarchy::dataFill(Addr addr)
{
    l1d_.fill(addr);
    l2_.fill(addr);
}

AccessResult
MemHierarchy::instAccess(Addr addr)
{
    if (l1i_.access(addr))
        return {params_.l1i.hitLatency, HitLevel::kL1};
    if (l2_.access(addr))
        return {params_.l2.hitLatency, HitLevel::kL2};
    return {params_.l2.hitLatency + params_.dramLatency, HitLevel::kMemory};
}

namespace {

/** An eager access seen through the request API: the fill already
 *  landed, so nothing is ever merged or rejected. */
MemRequestResult
eagerRequest(const AccessResult &res)
{
    return {res.level == HitLevel::kL1 ? MemReqStatus::kHit
                                       : MemReqStatus::kMiss,
            res.latency, res.level};
}

} // namespace

MemRequestResult
MemHierarchy::dataRequest(Addr addr, Cycle now, InstSeqNum seq,
                          MshrTargetKind kind, unsigned tid)
{
    if (!mshrEnabled())
        return eagerRequest(dataAccess(addr));
    if (l1d_.probe(addr)) {
        l1d_.access(addr);
        return {MemReqStatus::kHit, params_.l1d.hitLatency,
                HitLevel::kL1};
    }

    const Addr line = lineOf(addr);
    const MshrTarget target{seq, kind, tid};

    // Secondary miss: the line is already on its way to L1D.
    if (MshrEntry *e = mshrD_.find(line)) {
        if (!mshrD_.addTarget(*e, target))
            return {MemReqStatus::kRejected, 0, HitLevel::kMemory};
        l1d_.accessNoFill(addr);
        const bool off = e->fillAt > now + params_.l2.hitLatency;
        return {MemReqStatus::kMerged,
                static_cast<unsigned>(e->fillAt - now),
                off ? HitLevel::kMemory : HitLevel::kL2};
    }

    if (mshrD_.full()) {
        mshrD_.noteFullStall();
        return {MemReqStatus::kRejected, 0, HitLevel::kMemory};
    }

    // Primary miss filled from L2.
    if (l2_.probe(addr)) {
        l1d_.accessNoFill(addr);
        l2_.access(addr);
        const unsigned lat = params_.l2.hitLatency;
        mshrD_.allocate(line, now + lat, target);
        return {MemReqStatus::kMiss, lat, HitLevel::kL2};
    }

    // L2 miss: coalesce onto an in-flight DRAM request (possibly one
    // the instruction side started) or start a new one.
    if (MshrEntry *e2 = mshrL2_.find(line)) {
        if (!mshrL2_.addTarget(*e2, target))
            return {MemReqStatus::kRejected, 0, HitLevel::kMemory};
        l1d_.accessNoFill(addr);
        l2_.accessNoFill(addr);
        mshrD_.allocate(line, e2->fillAt, target);
        return {MemReqStatus::kMerged,
                static_cast<unsigned>(e2->fillAt - now),
                HitLevel::kMemory};
    }
    NDA_ASSERT(!mshrL2_.full(),
               "L2 MSHR file full despite L1-backed sizing");
    l1d_.accessNoFill(addr);
    l2_.accessNoFill(addr);
    const unsigned lat = params_.l2.hitLatency + params_.dramLatency;
    mshrL2_.allocate(line, now + lat, target);
    mshrD_.allocate(line, now + lat, target);
    return {MemReqStatus::kMiss, lat, HitLevel::kMemory};
}

MemRequestResult
MemHierarchy::instRequest(Addr addr, Cycle now)
{
    if (!mshrEnabled())
        return eagerRequest(instAccess(addr));
    if (l1i_.probe(addr)) {
        l1i_.access(addr);
        return {MemReqStatus::kHit, params_.l1i.hitLatency,
                HitLevel::kL1};
    }

    const Addr line = lineOf(addr);
    const MshrTarget target{kInvalidSeqNum, MshrTargetKind::kFetch};

    if (MshrEntry *e = mshrI_.find(line)) {
        if (!mshrI_.addTarget(*e, target))
            return {MemReqStatus::kRejected, 0, HitLevel::kMemory};
        l1i_.accessNoFill(addr);
        const bool off = e->fillAt > now + params_.l2.hitLatency;
        return {MemReqStatus::kMerged,
                static_cast<unsigned>(e->fillAt - now),
                off ? HitLevel::kMemory : HitLevel::kL2};
    }

    if (mshrI_.full()) {
        mshrI_.noteFullStall();
        return {MemReqStatus::kRejected, 0, HitLevel::kMemory};
    }

    if (l2_.probe(addr)) {
        l1i_.accessNoFill(addr);
        l2_.access(addr);
        const unsigned lat = params_.l2.hitLatency;
        mshrI_.allocate(line, now + lat, target);
        return {MemReqStatus::kMiss, lat, HitLevel::kL2};
    }

    if (MshrEntry *e2 = mshrL2_.find(line)) {
        if (!mshrL2_.addTarget(*e2, target))
            return {MemReqStatus::kRejected, 0, HitLevel::kMemory};
        l1i_.accessNoFill(addr);
        l2_.accessNoFill(addr);
        mshrI_.allocate(line, e2->fillAt, target);
        return {MemReqStatus::kMerged,
                static_cast<unsigned>(e2->fillAt - now),
                HitLevel::kMemory};
    }
    NDA_ASSERT(!mshrL2_.full(),
               "L2 MSHR file full despite L1-backed sizing");
    l1i_.accessNoFill(addr);
    l2_.accessNoFill(addr);
    const unsigned lat = params_.l2.hitLatency + params_.dramLatency;
    mshrL2_.allocate(line, now + lat, target);
    mshrI_.allocate(line, now + lat, target);
    return {MemReqStatus::kMiss, lat, HitLevel::kMemory};
}

void
MemHierarchy::advance(Cycle now)
{
    if (!mshrEnabled())
        return;
    // L2 fills land before the L1 fills that depend on them; within a
    // file, (fillAt, allocation) order — bit-reproducible for any
    // request interleaving.
    for (const MshrEntry &e : mshrL2_.takeReady(now))
        l2_.fill(lineToAddr(e.lineAddr));
    for (const MshrEntry &e : mshrI_.takeReady(now))
        l1i_.fill(lineToAddr(e.lineAddr));
    for (const MshrEntry &e : mshrD_.takeReady(now))
        l1d_.fill(lineToAddr(e.lineAddr));
    mshrL2_.sampleOccupancy();
    mshrI_.sampleOccupancy();
    mshrD_.sampleOccupancy();
}

void
MemHierarchy::squashLoadTargets(InstSeqNum keep_seq, unsigned tid)
{
    if (!mshrEnabled())
        return;
    mshrD_.squashLoadTargets(keep_seq, tid);
    mshrL2_.squashLoadTargets(keep_seq, tid);
}

namespace {

/** Apply a file's pending fills to a captured tag image. */
void
drainInto(const Mshr &file, const CacheParams &params,
          Cache::Snapshot &snap)
{
    if (file.empty())
        return;
    Cache tmp(params);
    tmp.restore(snap);
    for (const MshrEntry &e : file.pendingSorted())
        tmp.fill(e.lineAddr * params.lineBytes);
    snap = tmp.save();
}

} // namespace

MemHierarchy::Snapshot
MemHierarchy::save() const
{
    Snapshot snap{l1i_.save(), l1d_.save(), l2_.save()};
    if (!mshrDrained()) {
        drainInto(mshrL2_, params_.l2, snap.l2);
        drainInto(mshrI_, params_.l1i, snap.l1i);
        drainInto(mshrD_, params_.l1d, snap.l1d);
    }
    return snap;
}

void
MemHierarchy::restore(const Snapshot &snap)
{
    l1i_.restore(snap.l1i);
    l1d_.restore(snap.l1d);
    l2_.restore(snap.l2);
    mshrI_.clear();
    mshrD_.clear();
    mshrL2_.clear();
}

void
MemHierarchy::flushLine(Addr addr)
{
    l1d_.flush(addr);
    l1i_.flush(addr);
    l2_.flush(addr);
}

void
MemHierarchy::flushAll()
{
    l1i_.flushAll();
    l1d_.flushAll();
    l2_.flushAll();
}

void
MemHierarchy::registerStats(StatsRegistry &reg,
                            const std::string &prefix) const
{
    l1i_.registerStats(reg, prefix + ".l1i");
    l1d_.registerStats(reg, prefix + ".l1d");
    l2_.registerStats(reg, prefix + ".l2");
    mshrI_.registerStats(reg, prefix + ".l1i");
    mshrD_.registerStats(reg, prefix + ".l1d");
    mshrL2_.registerStats(reg, prefix + ".l2");
}

} // namespace nda
