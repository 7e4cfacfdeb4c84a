/**
 * @file
 * Single-level set-associative cache model with true-LRU replacement.
 *
 * State-only (tags + LRU); data always comes from the functional
 * MemoryMap. Supports non-mutating `probe` lookups so the InvisiSpec
 * model can compute the latency a speculative load *would* see without
 * perturbing cache state (paper §7 / InvisiSpec).
 */

#ifndef NDASIM_MEM_CACHE_HH
#define NDASIM_MEM_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace nda {

class StatsRegistry;

/** Geometry/latency parameters of one cache level. */
struct CacheParams {
    std::string name = "cache";
    std::size_t sizeBytes = 32 * 1024;
    unsigned ways = 8;
    unsigned lineBytes = kLineSize;
    /** Round-trip hit latency in cycles (Table 3). */
    unsigned hitLatency = 4;
};

/** Tag-array model of a set-associative cache with true LRU. */
class Cache
{
  public:
    explicit Cache(const CacheParams &params);

    struct Line {
        Addr tag = 0;
        bool valid = false;
        std::uint64_t lastUse = 0; ///< LRU timestamp

        bool operator==(const Line &) const = default;
    };

    /**
     * Complete warming state: tags, LRU clock, and the access
     * counters (so a restored cache's stats dump matches the one it
     * was saved from bit-for-bit). Restore requires identical
     * geometry — tag/set decomposition depends on it.
     */
    struct Snapshot {
        std::vector<Line> lines;
        std::uint64_t useClock = 0;
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t fills = 0;

        bool operator==(const Snapshot &) const = default;
    };

    Snapshot save() const;
    void restore(const Snapshot &snap);

    /**
     * Look up `addr`; on hit, update LRU. On miss, allocate the line
     * (evicting LRU).
     * @return true on hit.
     */
    bool access(Addr addr);

    /**
     * Look up `addr`; on hit, count it and update LRU as access()
     * does. On miss change nothing: a non-blocking request may still
     * be rejected, and an accepted one counts its miss with
     * countMiss() and gets its line later through fill().
     * @return true on hit.
     */
    bool touch(Addr addr);

    /** Count a miss touch() found, as access() would count it. */
    void countMiss() { ++useClock_; ++misses_; }

    /** Look up without changing any state. */
    bool probe(Addr addr) const;

    /** Insert the line containing addr (used for fills from below). */
    void fill(Addr addr);

    /** Invalidate the line containing addr if present. */
    void flush(Addr addr);

    /** Invalidate everything. */
    void flushAll();

    const CacheParams &params() const { return params_; }
    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    std::uint64_t fills() const { return fills_; }
    void resetStats() { hits_ = 0; misses_ = 0; fills_ = 0; }

    /** Bind hits/misses/fills + miss_rate under `prefix`. */
    void registerStats(StatsRegistry &reg,
                       const std::string &prefix) const;

  private:
    Addr lineAddr(Addr addr) const { return addr / params_.lineBytes; }
    unsigned setIndex(Addr line) const
    {
        return static_cast<unsigned>(line % numSets_);
    }
    Addr tagOf(Addr line) const { return line / numSets_; }

    /** One set walk: the line holding the address, or else the way
     *  a fill would take (the first invalid way, else the first
     *  least-recently-used one). */
    struct Slot {
        Line *hit = nullptr;
        Line *victim = nullptr;
        Addr tag = 0;
    };
    Slot walk(Addr addr);
    /** Count the hit in `s` and refresh its LRU; false on a miss. */
    bool useHit(const Slot &s);
    /** Refresh the line in `s`, or allocate its victim way. */
    void install(const Slot &s);

    CacheParams params_;
    unsigned numSets_;
    std::vector<Line> lines_;   ///< numSets_ * ways, set-major
    std::uint64_t useClock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t fills_ = 0;  ///< fills from below (incl. exposes)
};

} // namespace nda

#endif // NDASIM_MEM_CACHE_HH
