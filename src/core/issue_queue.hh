/**
 * @file
 * Age-ordered issue queue. Entries wake when both source physical
 * registers are ready; NDA delays readiness by deferring the
 * producer's tag broadcast, so unsafe producers keep their dependents
 * parked here (paper Fig 2).
 */

#ifndef NDASIM_CORE_ISSUE_QUEUE_HH
#define NDASIM_CORE_ISSUE_QUEUE_HH

#include <string>
#include <vector>

#include "core/dyn_inst_pool.hh"
#include "core/phys_reg_file.hh"

namespace nda {

class StatsRegistry;

/** Simple unified issue queue with age-ordered select. */
class IssueQueue
{
  public:
    explicit IssueQueue(unsigned capacity);

    bool full() const { return entries_.size() >= capacity_; }
    std::size_t size() const { return entries_.size(); }
    bool empty() const { return entries_.empty(); }

    /**
     * Entries currently held by hardware thread `tid`. Used by SMT
     * dispatch to cap each thread's share of the queue: with a fully
     * shared IQ one thread's long-latency burst (e.g. a string of
     * multiplies draining through one port) can park in every entry
     * and starve the co-resident thread out of dispatch entirely.
     */
    unsigned
    occupancyOf(unsigned tid) const
    {
        return tid < perThread_.size() ? perThread_[tid] : 0;
    }

    /** Insert at dispatch (entries stay age-ordered by construction). */
    void insert(const DynInstPtr &inst);

    /**
     * Age-ordered select: invoke `try_issue` on each entry whose
     * sources are ready; the callback returns true to issue (entry is
     * removed) or false to leave the entry parked (e.g., structural
     * hazard or serialization constraint). Squashed entries are
     * dropped as encountered.
     *
     * The callback is a template parameter, not a std::function: this
     * runs once per IQ entry per cycle, the hottest loop in the
     * simulator, and the issue logic must inline into it.
     */
    template <typename TryIssue>
    void
    selectReady(const PhysRegFile &regs, TryIssue &&try_issue)
    {
        std::size_t out = 0;
        for (std::size_t i = 0; i < entries_.size(); ++i) {
            DynInstPtr inst = std::move(entries_[i]);
            if (inst->squashed) {
                release(inst->tid);
                continue; // drop
            }
            bool issued = false;
            if (sourcesReady(*inst, regs))
                issued = try_issue(inst);
            if (issued)
                release(inst->tid);
            else
                entries_[out++] = std::move(inst);
        }
        entries_.resize(out);
    }

    /** Drop squashed entries eagerly (called after a squash). */
    void removeSquashed();

    void
    clear()
    {
        entries_.clear();
        perThread_.assign(perThread_.size(), 0);
    }

    std::uint64_t inserts() const { return inserts_; }
    void resetStats() { inserts_ = 0; }

    /** Bind inserts + occupancy_now under `prefix`. */
    void registerStats(StatsRegistry &reg,
                       const std::string &prefix) const;

  private:
    static bool sourcesReady(const DynInst &inst, const PhysRegFile &regs);

    void
    release(unsigned tid)
    {
        if (tid < perThread_.size() && perThread_[tid] > 0)
            --perThread_[tid];
    }

    unsigned capacity_;
    std::vector<DynInstPtr> entries_;
    std::vector<unsigned> perThread_; ///< occupancy per hardware thread
    std::uint64_t inserts_ = 0;       ///< entries allocated at dispatch
};

} // namespace nda

#endif // NDASIM_CORE_ISSUE_QUEUE_HH
