/**
 * @file
 * Physical register file with per-register ready bits and a free list.
 *
 * The ready bit is the heart of NDA: an unsafe completing instruction
 * writes its value here but does NOT set ready, so dependents in the
 * issue queue cannot wake (paper §5.1, Fig 2 step 3 -> 4).
 *
 * Under SMT the file is statically partitioned: each hardware thread
 * owns its identity-mapped architectural range plus a contiguous chunk
 * of the rename pool, and a freed register always returns to its
 * owner's list. A single-thread core (the default) reduces to one
 * partition holding the whole file — bit-identical to the pre-SMT
 * allocator.
 */

#ifndef NDASIM_CORE_PHYS_REG_FILE_HH
#define NDASIM_CORE_PHYS_REG_FILE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace nda {

class StatsRegistry;

/** Physical integer register file + per-thread free lists. */
class PhysRegFile
{
  public:
    explicit PhysRegFile(unsigned num_regs);

    /** Allocate from thread `tid`'s partition; panics if exhausted
     *  (caller checks hasFree). */
    PhysRegId alloc(unsigned tid = 0);

    /** Return a register to its owning partition's free list. */
    void free(PhysRegId r);

    bool
    hasFree(unsigned tid = 0) const
    {
        return !freeLists_[tid].empty();
    }

    std::size_t
    numFree() const
    {
        std::size_t n = 0;
        for (const auto &fl : freeLists_)
            n += fl.size();
        return n;
    }

    /** Thread `tid`'s raw free list (fuzz/invariant_checker). */
    const std::vector<PhysRegId> &
    freeList(unsigned tid = 0) const
    {
        return freeLists_[tid];
    }

    /** Number of free-list partitions (== SMT thread count). */
    unsigned
    numPartitions() const
    {
        return static_cast<unsigned>(freeLists_.size());
    }

    /** The hardware thread owning phys reg `r`'s storage. */
    unsigned owner(PhysRegId r) const { return owner_[r]; }

    RegVal value(PhysRegId r) const { return values_[r]; }
    void setValue(PhysRegId r, RegVal v) { values_[r] = v; }

    bool ready(PhysRegId r) const { return ready_[r]; }
    void setReady(PhysRegId r) { ready_[r] = true; }

    /**
     * Reset all registers to not-ready and rebuild the free lists,
     * keeping the first `reserved_per_thread * nthreads` registers
     * allocated and ready (the initial per-thread architectural
     * mappings: thread t's arch reg a maps to phys reg
     * t * reserved_per_thread + a). The rename pool is split into
     * `nthreads` contiguous chunks, one per thread.
     */
    void reset(unsigned reserved_per_thread, unsigned nthreads = 1);

    unsigned size() const { return static_cast<unsigned>(values_.size()); }

    std::uint64_t allocs() const { return allocs_; }
    void resetStats() { allocs_ = 0; frees_ = 0; }

    /** Bind allocs/frees + free_now under `prefix`. */
    void registerStats(StatsRegistry &reg,
                       const std::string &prefix) const;

  private:
    std::vector<RegVal> values_;
    std::vector<bool> ready_;
    std::vector<std::vector<PhysRegId>> freeLists_; ///< per thread
    std::vector<unsigned> owner_;                   ///< reg -> thread
    std::uint64_t allocs_ = 0;  ///< rename allocations
    std::uint64_t frees_ = 0;   ///< returns (commit + squash)
};

} // namespace nda

#endif // NDASIM_CORE_PHYS_REG_FILE_HH
