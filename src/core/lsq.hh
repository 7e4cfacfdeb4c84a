/**
 * @file
 * Load/Store Queue: store-to-load forwarding, speculative store
 * bypass (the SSB attack substrate), memory-order-violation
 * detection, and the bookkeeping NDA's Bypass Restriction needs
 * (paper §4.1, §5.2).
 *
 * Under SMT the capacity (LQ/SQ entry counts) is shared between the
 * hardware threads, but the queues themselves are per-thread:
 * store-to-load forwarding, bypass tracking, and memory-order
 * violation detection are all same-thread properties (cross-thread
 * communication goes through committed memory). A per-thread squash
 * flash-clears only that thread's entries.
 */

#ifndef NDASIM_CORE_LSQ_HH
#define NDASIM_CORE_LSQ_HH

#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "core/dyn_inst_pool.hh"
#include "core/phys_reg_file.hh"

namespace nda {

class StatsRegistry;

/** Result of checking a load against the store queue. */
struct StoreSearchResult {
    /** Full-overlap resolved store found: forward this value. */
    bool forward = false;
    RegVal value = 0;
    /** The store that forwarded (for the DIFT oracle's data taint). */
    const DynInst *forwardStore = nullptr;
    /** Partial overlap with a resolved store: load must retry later. */
    bool mustStall = false;
    /** Seq numbers of older stores whose address is still unknown. */
    std::vector<InstSeqNum> bypassedStores;
};

/** Combined load queue + store queue (shared across SMT threads). */
class Lsq
{
  public:
    Lsq(unsigned lq_entries, unsigned sq_entries, unsigned nthreads = 1);

    bool lqFull() const { return nLoads_ >= lqEntries_; }
    bool sqFull() const { return nStores_ >= sqEntries_; }
    std::size_t lqSize() const { return nLoads_; }
    std::size_t sqSize() const { return nStores_; }

    /** Allocate at dispatch (in per-thread program order); the entry
     *  lands in the queue of the instruction's hardware thread. */
    void insertLoad(const DynInstPtr &inst);
    void insertStore(const DynInstPtr &inst);

    /**
     * Search thread `tid`'s older stores for a load at `addr`/`size`.
     * Scans youngest-to-oldest among stores older than `load_seq`.
     * `regs` is consulted for store-data readiness: a covering store
     * whose data has not been broadcast cannot forward (and, under
     * NDA, an unsafe producer's value must not propagate this way).
     */
    StoreSearchResult searchStores(InstSeqNum load_seq, Addr addr,
                                   unsigned size,
                                   const PhysRegFile &regs,
                                   unsigned tid = 0) const;

    /**
     * Called when a store's address resolves: find the oldest younger
     * same-thread load that already executed against an overlapping
     * address while this store was unresolved (a memory-order
     * violation).
     * @return the violating load, if any.
     */
    DynInstPtr checkViolations(const DynInst &store) const;

    /**
     * Bypass Restriction bookkeeping: remove `store_seq` from every
     * thread-`tid` load's bypassed-store set; return loads whose set
     * became empty (candidates to become safe, paper §5.2).
     */
    std::vector<DynInstPtr> retireBypass(InstSeqNum store_seq,
                                         unsigned tid = 0);

    /** Remove the (committed) head load/store of its thread. */
    void commitLoad(const DynInst &inst);
    void commitStore(const DynInst &inst);

    /** Drop thread `tid`'s entries younger than `squash_seq`
     *  (exclusive); other threads' entries are untouched. */
    void squashYoungerThan(InstSeqNum squash_seq, unsigned tid = 0);

    /** Thread `tid`'s age-ordered queues (checker introspection). */
    const std::deque<DynInstPtr> &
    stores(unsigned tid = 0) const
    {
        return stores_[tid];
    }
    const std::deque<DynInstPtr> &
    loads(unsigned tid = 0) const
    {
        return loads_[tid];
    }

    unsigned
    numThreads() const
    {
        return static_cast<unsigned>(loads_.size());
    }

    void clear();

    static bool
    overlaps(Addr a1, unsigned s1, Addr a2, unsigned s2)
    {
        return a1 < a2 + s2 && a2 < a1 + s1;
    }

    /** Store [a2,s2) fully covers load [a1,s1)? */
    static bool
    contains(Addr a1, unsigned s1, Addr a2, unsigned s2)
    {
        return a2 <= a1 && a1 + s1 <= a2 + s2;
    }

    std::uint64_t searches() const { return searches_; }
    std::uint64_t forwards() const { return forwards_; }
    void resetStats() { searches_ = 0; forwards_ = 0; stallRetries_ = 0; }

    /** Bind searches/forwards/stall_retries + forward_rate. */
    void registerStats(StatsRegistry &reg,
                       const std::string &prefix) const;

  private:
    unsigned lqEntries_;
    unsigned sqEntries_;
    std::size_t nLoads_ = 0;   ///< occupancy across all threads
    std::size_t nStores_ = 0;
    std::vector<std::deque<DynInstPtr>> loads_;   ///< per-thread, aged
    std::vector<std::deque<DynInstPtr>> stores_;  ///< per-thread, aged

    // Search statistics; mutable because searchStores is logically
    // const (no queue state changes) but still worth counting.
    mutable std::uint64_t searches_ = 0;
    mutable std::uint64_t forwards_ = 0;
    mutable std::uint64_t stallRetries_ = 0;
};

} // namespace nda

#endif // NDASIM_CORE_LSQ_HH
