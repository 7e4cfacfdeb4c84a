#include "mem/hierarchy.hh"

#include <algorithm>

#include "common/log.hh"

namespace nda {

MemHierarchy::MemHierarchy(const HierarchyParams &params)
    : params_(params),
      // The L2 file is sized so it can never reject a line an L1 file
      // accepted: every pending L2 entry is backed by at least one
      // pending L1 entry.
      levels_{{{"l2", &Snapshot::l2, Cache(params.l2),
                Mshr("mshr_l2", 2 * params.mshrEntries,
                     params.mshrTargets)},
               {"l1i", &Snapshot::l1i, Cache(params.l1i),
                Mshr("mshr_i", params.mshrEntries, params.mshrTargets)},
               {"l1d", &Snapshot::l1d, Cache(params.l1d),
                Mshr("mshr_d", params.mshrEntries, params.mshrTargets)}}}
{
    NDA_ASSERT(!mshrEnabled() ||
                   (params_.l1i.lineBytes == params_.l1d.lineBytes &&
                    params_.l1d.lineBytes == params_.l2.lineBytes),
               "MSHR coalescing assumes one line size across levels");
}

namespace {

/** The eager L1-then-L2 lookup. `Look` is `Cache::access` (misses
 *  fill immediately) or `Cache::probe` (a peek that changes nothing). */
template <auto Look, class C>
MemRequestResult
lookup(C &l1, C &l2, unsigned dram_latency, Addr addr)
{
    if ((l1.*Look)(addr))
        return {MemReqStatus::kHit, l1.params().hitLatency, HitLevel::kL1};
    if ((l2.*Look)(addr))
        return {MemReqStatus::kMiss, l2.params().hitLatency,
                HitLevel::kL2};
    return {MemReqStatus::kMiss, l2.params().hitLatency + dram_latency,
            HitLevel::kMemory};
}

} // namespace

MemRequestResult
MemHierarchy::dataAccess(Addr addr)
{
    return lookup<&Cache::access>(l1d(), l2(), params_.dramLatency, addr);
}

MemRequestResult
MemHierarchy::instAccess(Addr addr)
{
    return lookup<&Cache::access>(l1i(), l2(), params_.dramLatency, addr);
}

MemRequestResult
MemHierarchy::dataPeek(Addr addr) const
{
    return lookup<&Cache::probe>(l1d(), l2(), params_.dramLatency, addr);
}

void
MemHierarchy::dataFill(Addr addr)
{
    l1d().fill(addr);
    l2().fill(addr);
}

MemRequestResult
MemHierarchy::dataRequest(Addr addr, Cycle now, InstSeqNum seq,
                          MshrTargetKind kind, unsigned tid)
{
    return request(levels_[kL1D], addr, now, {seq, kind, tid});
}

MemRequestResult
MemHierarchy::instRequest(Addr addr, Cycle now)
{
    return request(levels_[kL1I], addr, now,
                   {kInvalidSeqNum, MshrTargetKind::kFetch});
}

MemRequestResult
MemHierarchy::request(Level &l1, Addr addr, Cycle now,
                      const MshrTarget &target)
{
    Cache &l2 = levels_[kL2].cache;
    if (!mshrEnabled())
        return lookup<&Cache::access>(l1.cache, l2, params_.dramLatency,
                                      addr);
    if (l1.cache.touch(addr))
        return {MemReqStatus::kHit, l1.cache.params().hitLatency,
                HitLevel::kL1};

    constexpr MemRequestResult kReject{MemReqStatus::kRejected, 0,
                                       HitLevel::kMemory};
    const Addr line = addr / l1.cache.params().lineBytes;
    const unsigned l2_latency = l2.params().hitLatency;

    // Secondary miss: the line is already on its way to this L1.
    if (MshrEntry *e = l1.mshr.find(line)) {
        if (!l1.mshr.addTarget(*e, target))
            return kReject;
        l1.cache.countMiss();
        const bool off = e->fillAt > now + l2_latency;
        return {MemReqStatus::kMerged,
                static_cast<unsigned>(e->fillAt - now),
                off ? HitLevel::kMemory : HitLevel::kL2};
    }

    if (l1.mshr.full()) {
        l1.mshr.noteFullStall();
        return kReject;
    }

    // Primary miss filled from L2.
    if (l2.touch(addr)) {
        l1.cache.countMiss();
        l1.mshr.allocate(line, now + l2_latency, target);
        return {MemReqStatus::kMiss, l2_latency, HitLevel::kL2};
    }

    // L2 miss: coalesce onto an in-flight DRAM request (possibly one
    // the other L1 side started) or start a new one.
    Mshr &l2_file = levels_[kL2].mshr;
    MshrEntry *inflight = l2_file.find(line);
    if (inflight && !l2_file.addTarget(*inflight, target))
        return kReject;
    NDA_ASSERT(inflight || !l2_file.full(),
               "L2 MSHR file full despite L1-backed sizing");
    l1.cache.countMiss();
    l2.countMiss();
    const Cycle fill_at = inflight
                              ? inflight->fillAt
                              : now + l2_latency + params_.dramLatency;
    if (!inflight)
        l2_file.allocate(line, fill_at, target);
    l1.mshr.allocate(line, fill_at, target);
    return {inflight ? MemReqStatus::kMerged : MemReqStatus::kMiss,
            static_cast<unsigned>(fill_at - now), HitLevel::kMemory};
}

void
MemHierarchy::advance(Cycle now)
{
    if (!mshrEnabled())
        return;
    // Levels in drain order; within a file, (fillAt, allocation)
    // order — bit-reproducible for any request interleaving.
    for (Level &lv : levels_) {
        lv.drain(now);
        lv.mshr.sampleOccupancy();
    }
}

void
MemHierarchy::Level::drain(Cycle now)
{
    for (const MshrEntry &e : mshr.takeReady(now))
        cache.fill(e.lineAddr * cache.params().lineBytes);
}

void
MemHierarchy::squashLoadTargets(InstSeqNum keep_seq, unsigned tid)
{
    for (Level &lv : levels_)
        lv.mshr.squashLoadTargets(keep_seq, tid);
}

bool
MemHierarchy::mshrDrained() const
{
    return std::all_of(levels_.begin(), levels_.end(),
                       [](const Level &lv) { return lv.mshr.empty(); });
}

MemHierarchy::Snapshot
MemHierarchy::save() const
{
    Snapshot snap;
    for (const Level &lv : levels_) {
        if (lv.mshr.empty()) {
            snap.*lv.image = lv.cache.save();
            continue;
        }
        Level landed = lv; // every pending fill lands in a copy
        landed.drain(~Cycle{0});
        snap.*lv.image = landed.cache.save();
    }
    return snap;
}

void
MemHierarchy::restore(const Snapshot &snap)
{
    for (Level &lv : levels_) {
        lv.cache.restore(snap.*lv.image);
        lv.mshr.clear();
    }
}

void
MemHierarchy::flushLine(Addr addr)
{
    for (Level &lv : levels_)
        lv.cache.flush(addr);
}

void
MemHierarchy::flushAll()
{
    for (Level &lv : levels_)
        lv.cache.flushAll();
}

void
MemHierarchy::resetStats()
{
    for (Level &lv : levels_) {
        lv.cache.resetStats();
        lv.mshr.resetStats();
    }
}

void
MemHierarchy::registerStats(StatsRegistry &reg,
                            const std::string &prefix) const
{
    for (const Level &lv : levels_) {
        const std::string group = prefix + "." + lv.name;
        lv.cache.registerStats(reg, group);
        lv.mshr.registerStats(reg, group);
    }
}

} // namespace nda
