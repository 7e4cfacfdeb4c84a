#include "core/issue_queue.hh"

#include <algorithm>

#include "common/log.hh"
#include "obs/stats_registry.hh"

namespace nda {

IssueQueue::IssueQueue(unsigned capacity)
    : capacity_(capacity)
{
    entries_.reserve(capacity);
}

void
IssueQueue::insert(const DynInstPtr &inst)
{
    NDA_ASSERT(!full(), "issue queue overflow");
    ++inserts_;
    if (inst->tid >= perThread_.size())
        perThread_.resize(inst->tid + 1, 0);
    ++perThread_[inst->tid];
    entries_.push_back(inst);
}

bool
IssueQueue::sourcesReady(const DynInst &inst, const PhysRegFile &regs)
{
    if (inst.src1 != kInvalidPhysReg && !regs.ready(inst.src1))
        return false;
    // Stores issue their address phase as soon as the base register
    // is ready (split store-address/store-data micro-ops, as in real
    // OoO cores); the data register is read at commit.
    if (inst.uop.isStore())
        return true;
    if (inst.src2 != kInvalidPhysReg && !regs.ready(inst.src2))
        return false;
    return true;
}

void
IssueQueue::removeSquashed()
{
    const auto is_squashed = [this](const DynInstPtr &inst) {
        if (inst->squashed) {
            release(inst->tid);
            return true;
        }
        return false;
    };
    entries_.erase(
        std::remove_if(entries_.begin(), entries_.end(), is_squashed),
        entries_.end());
}

void
IssueQueue::registerStats(StatsRegistry &reg,
                          const std::string &prefix) const
{
    const StatsRegistry::Group g = reg.group(prefix);
    g.counter("inserts", &inserts_, "entries allocated at dispatch");
    g.formula("occupancy_now",
              [this] { return static_cast<double>(entries_.size()); },
              "entries resident at dump time");
}

} // namespace nda
