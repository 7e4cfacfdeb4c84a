/**
 * @file
 * Branch Target Buffer. 4096 entries (Table 3), set-associative,
 * tagged by branch PC.
 *
 * Security-relevant property (paper §3, Fig 5): updates performed by
 * *speculative, later-squashed* branch executions are NOT reverted —
 * the BTB is a covert channel. The simulator deliberately updates the
 * BTB at branch execution, not commit.
 */

#ifndef NDASIM_BRANCH_BTB_HH
#define NDASIM_BRANCH_BTB_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hh"

namespace nda {

class StatsRegistry;

/** BTB parameters. */
struct BtbParams {
    unsigned entries = 4096;
    unsigned ways = 4;
    /**
     * Partial-tag width in bits, as in real BTBs. Branches whose PCs
     * agree in set index and partial tag alias — the mechanism
     * Spectre-v2-style target injection exploits.
     */
    unsigned tagBits = 16;
};

/** Set-associative branch target buffer with LRU replacement. */
class Btb
{
  public:
    explicit Btb(const BtbParams &p = {});

    struct Entry {
        Addr tag = 0;
        Addr target = 0;
        bool valid = false;
        std::uint64_t lastUse = 0;

        bool operator==(const Entry &) const = default;
    };

    /** Complete table state for warming checkpoints. */
    struct Snapshot {
        std::vector<Entry> entries;
        std::uint64_t useClock = 0;
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t updates = 0;

        bool operator==(const Snapshot &) const = default;
    };

    Snapshot save() const;
    void restore(const Snapshot &snap);

    /** Predicted target for the branch at pc, if present. */
    std::optional<Addr> lookup(Addr pc);

    /** Lookup without touching LRU (for tests). */
    std::optional<Addr> probe(Addr pc) const;

    /** Install/refresh pc -> target (called at branch *execution*). */
    void update(Addr pc, Addr target);

    void reset();

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    void resetStats() { hits_ = 0; misses_ = 0; updates_ = 0; }

    /** Bind hits/misses/updates + hit_rate under `prefix`. */
    void registerStats(StatsRegistry &reg,
                       const std::string &prefix) const;

  private:
    unsigned setIndex(Addr pc) const
    {
        return static_cast<unsigned>(pc % numSets_);
    }
    Addr
    tagOf(Addr pc) const
    {
        const Addr full = pc / numSets_;
        return params_.tagBits >= 64
                   ? full
                   : full & ((Addr{1} << params_.tagBits) - 1);
    }

    Entry *find(Addr pc);
    const Entry *findConst(Addr pc) const;

    BtbParams params_;
    unsigned numSets_;
    std::vector<Entry> entries_;
    std::uint64_t useClock_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t updates_ = 0; ///< installs/refreshes (at execution)
};

} // namespace nda

#endif // NDASIM_BRANCH_BTB_HH
