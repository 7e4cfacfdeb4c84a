/**
 * @file
 * Two-level cache hierarchy + DRAM timing model (paper Table 3):
 * split 32 KiB L1I/L1D (4-cycle round trip), unified 2 MiB L2
 * (40-cycle round trip), 50 ns DRAM (100 cycles at 2 GHz).
 *
 * Each level is a tag array (mem/cache.hh) plus the MSHR file
 * (mem/mshr.hh) that fronts it; whole-hierarchy operations loop over
 * the three levels, and one private miss routine, `request()`, serves
 * both L1 sides. The timing cores reach it through `dataRequest`,
 * `instRequest`, `advance` and `squashLoadTargets`; the hierarchy
 * alone picks the timing mode:
 *  - mshrEntries == 0 (default): the legacy eager model — a miss
 *    charges its latency and fills tags immediately, so a request is
 *    kHit exactly when L1 hits and is never merged or rejected. Every
 *    pre-MSHR golden, checkpoint, and fuzzer fingerprint was recorded
 *    against it.
 *  - mshrEntries >= 1: non-blocking mode. Misses allocate MSHR
 *    entries and the tags fill only when `advance()` reaches the fill
 *    cycle; a full file rejects the request (the core retries).
 *    mshrEntries == 1 is the canonical *blocking* configuration.
 * The eager lookups `dataAccess`/`instAccess` (functional warming, the
 * in-order core's prefetch touch) and the non-mutating `dataPeek`
 * share one L1-then-L2 walk.
 */

#ifndef NDASIM_MEM_HIERARCHY_HH
#define NDASIM_MEM_HIERARCHY_HH

#include <array>
#include <cstdint>

#include "common/types.hh"
#include "mem/cache.hh"
#include "mem/mshr.hh"

namespace nda {

/** Which level serviced an access. */
enum class HitLevel : std::uint8_t { kL1, kL2, kMemory };

/** Outcome class of one non-blocking request. */
enum class MemReqStatus : std::uint8_t {
    kHit = 0,   ///< serviced by L1; no MSHR involvement
    kMiss,      ///< L1 miss; with MSHRs, a primary miss (entry allocated)
    kMerged,    ///< secondary miss: coalesced onto an in-flight fill
    kRejected,  ///< MSHR file (or target list) full; retry next cycle
};

/** Timing outcome of one request, access or peek. The eager paths
 *  (no MSHRs, `dataAccess`, `instAccess`, `dataPeek`) report only
 *  kHit (L1) or kMiss. */
struct MemRequestResult {
    MemReqStatus status = MemReqStatus::kHit;
    unsigned latency = 0;       ///< cycles until the data is usable
    HitLevel level = HitLevel::kL1; ///< where the fill comes from

    bool rejected() const { return status == MemReqStatus::kRejected; }
    bool offChip() const { return level == HitLevel::kMemory; }
};

/** Parameters of the full hierarchy. */
struct HierarchyParams {
    CacheParams l1i{"l1i", 32 * 1024, 8, kLineSize, 4};
    CacheParams l1d{"l1d", 32 * 1024, 8, kLineSize, 4};
    CacheParams l2{"l2", 2 * 1024 * 1024, 16, kLineSize, 40};
    /** DRAM response latency in cycles (50 ns at 2 GHz). */
    unsigned dramLatency = 100;
    /**
     * MSHR entries per L1 file; the L2 file gets the sum of both L1
     * files so it can never reject a request an L1 accepted. 0 keeps
     * the legacy eager-fill model (bit-exact with pre-MSHR builds);
     * 1 models a blocking cache; >= 2 enables real MLP. A timing
     * knob only: excluded from snapshot geometry compatibility and
     * from the checkpoint serializer format.
     */
    unsigned mshrEntries = 0;
    /** Secondary-miss targets each entry can coalesce. */
    unsigned mshrTargets = 8;
};

/**
 * The memory-side timing model. Tags only — data always comes from the
 * functional MemoryMap owned by the core.
 */
class MemHierarchy
{
  public:
    explicit MemHierarchy(const HierarchyParams &params = {});

    /** Warming state of all three tag arrays (core/snapshot.hh). */
    struct Snapshot {
        Cache::Snapshot l1i;
        Cache::Snapshot l1d;
        Cache::Snapshot l2;

        bool operator==(const Snapshot &) const = default;
    };

    /**
     * Capture the tag arrays. In non-blocking mode any in-flight
     * fills are drained *into the captured image* in deterministic
     * (fillAt, allocation) order — the snapshot is the state the
     * machine converges to, so save -> restore -> save round-trips
     * bit-exact even mid-miss, and a legacy (mshr-less) consumer of
     * the snapshot sees no MSHR state at all.
     */
    Snapshot save() const;

    /** Restore all levels; geometry must match (asserted per level).
     *  In-flight MSHR state is discarded (restores target freshly
     *  constructed cores; nothing can be waiting on a fill). */
    void restore(const Snapshot &snap);

    /** Eager data access (load or store, write-allocate): a miss
     *  fills immediately. */
    MemRequestResult dataAccess(Addr addr);
    /** Eager instruction fetch access; mutates L1I/L2 state. */
    MemRequestResult instAccess(Addr addr);
    /** The latency a data access would see, changing no cache state
     *  (InvisiSpec speculative shadow access). */
    MemRequestResult dataPeek(Addr addr) const;

    /** Fill the line containing addr into L1D and L2 (expose). */
    void dataFill(Addr addr);

    // --- request interface (both timing modes) -------------------------
    /**
     * Data-side request. With MSHRs, a miss schedules its fill
     * through the MSHR files instead of landing eagerly; kRejected
     * means the file was full and *nothing* was mutated (retry next
     * cycle). Without MSHRs this is `dataAccess()`: kHit on an L1 hit,
     * kMiss otherwise, never kRejected. `now` is the core's current
     * cycle; `seq` and `tid` identify the requester for squash-time
     * target cancellation (squashes are per-hardware-thread under
     * SMT).
     */
    MemRequestResult dataRequest(Addr addr, Cycle now, InstSeqNum seq,
                                 MshrTargetKind kind, unsigned tid = 0);

    /** Instruction-side request; `instAccess()` without MSHRs. */
    MemRequestResult instRequest(Addr addr, Cycle now);

    /** Drain every fill due at or before `now` into the tag arrays
     *  (L2 first, then L1I, then L1D; (fillAt, alloc) order within a
     *  file) and sample MSHR occupancy. Call once per core cycle;
     *  a no-op without MSHRs. */
    void advance(Cycle now);

    /** Squash recovery: drop thread `tid`'s load targets younger than
     *  `keep_seq` from every file. The fills themselves still land
     *  (orphaned wrong-path fills are the squash-surviving channel NDA
     *  studies), and other threads' targets are untouched. */
    void squashLoadTargets(InstSeqNum keep_seq, unsigned tid = 0);

    bool mshrEnabled() const { return params_.mshrEntries > 0; }
    /** No fill in flight in any file. */
    bool mshrDrained() const;

    const Mshr &mshrData() const { return levels_[kL1D].mshr; }
    const Mshr &mshrInst() const { return levels_[kL1I].mshr; }
    const Mshr &mshrL2() const { return levels_[kL2].mshr; }
    /** Checker self-test corruption hooks (tests only). */
    Mshr &mshrDataForTest() { return levels_[kL1D].mshr; }

    /** clflush semantics: evict the line from L1D, L1I and L2. */
    void flushLine(Addr addr);

    /** Invalidate all caches. */
    void flushAll();

    Cache &l1i() { return levels_[kL1I].cache; }
    Cache &l1d() { return levels_[kL1D].cache; }
    Cache &l2() { return levels_[kL2].cache; }
    const Cache &l1d() const { return levels_[kL1D].cache; }
    const Cache &l2() const { return levels_[kL2].cache; }
    const HierarchyParams &params() const { return params_; }

    void resetStats();

    /** Bind each level's stats under `prefix`.l1i / .l1d / .l2
     *  (MSHR stats included unconditionally: the schema must not
     *  depend on configuration). */
    void registerStats(StatsRegistry &reg,
                       const std::string &prefix) const;

  private:
    /** One cache level and the MSHR file that fronts it. */
    struct Level {
        const char *name;                 ///< stats group (l1i/l1d/l2)
        Cache::Snapshot Snapshot::*image; ///< its tag image in a Snapshot
        Cache cache;
        Mshr mshr;

        /** Land every fill due at or before `now` in the tags, in
         *  (fillAt, allocation) order. */
        void drain(Cycle now);
    };
    /** Index into `levels_`, in drain order: L2 fills land before the
     *  L1 fills that depend on them. */
    enum LevelId : std::size_t { kL2, kL1I, kL1D };

    /** Either L1 side's request: the eager lookup without MSHRs, else
     *  L1 hit, coalesce, reject, L2 hit, L2 coalesce, DRAM. */
    MemRequestResult request(Level &l1, Addr addr, Cycle now,
                             const MshrTarget &target);

    HierarchyParams params_;
    std::array<Level, 3> levels_;
};

} // namespace nda

#endif // NDASIM_MEM_HIERARCHY_HH
