#include "mem/mshr.hh"

#include <algorithm>
#include <iterator>

#include "common/log.hh"
#include "obs/stats_registry.hh"

namespace nda {

Mshr::Mshr(std::string name, unsigned entries, unsigned maxTargets)
    : name_(std::move(name)), entries_(entries), maxTargets_(maxTargets)
{
    NDA_ASSERT(entries_ == 0 || maxTargets_ > 0,
               "%s: an enabled MSHR file needs target slots",
               name_.c_str());
    pending_.reserve(entries_);
}

MshrEntry *
Mshr::find(Addr line)
{
    for (MshrEntry &e : pending_) {
        if (e.lineAddr == line)
            return &e;
    }
    return nullptr;
}

MshrEntry &
Mshr::allocate(Addr line, Cycle fillAt, MshrTarget target)
{
    NDA_ASSERT(!full(), "%s: allocate on a full MSHR file",
               name_.c_str());
    NDA_ASSERT(find(line) == nullptr,
               "%s: duplicate primary miss for line %llu", name_.c_str(),
               static_cast<unsigned long long>(line));
    pending_.push_back(MshrEntry{line, fillAt, nextAllocId_++, {target}});
    return pending_.back();
}

bool
Mshr::addTarget(MshrEntry &entry, MshrTarget target)
{
    if (entry.targets.size() >= maxTargets_) {
        ++fullStalls_;
        return false;
    }
    entry.targets.push_back(target);
    ++secondaryMerges_;
    return true;
}

std::vector<MshrEntry>
Mshr::takeReady(Cycle now)
{
    // Still-pending entries keep their allocation order up front.
    const auto due = std::stable_partition(
        pending_.begin(), pending_.end(),
        [now](const MshrEntry &e) { return e.fillAt > now; });
    std::vector<MshrEntry> ready(std::make_move_iterator(due),
                                 std::make_move_iterator(pending_.end()));
    pending_.erase(due, pending_.end());
    std::sort(ready.begin(), ready.end(),
              [](const MshrEntry &a, const MshrEntry &b) {
                  return a.fillAt != b.fillAt ? a.fillAt < b.fillAt
                                              : a.allocId < b.allocId;
              });
    return ready;
}

void
Mshr::squashLoadTargets(InstSeqNum keep_seq, unsigned tid)
{
    for (MshrEntry &e : pending_) {
        e.targets.erase(
            std::remove_if(e.targets.begin(), e.targets.end(),
                           [keep_seq, tid](const MshrTarget &t) {
                               return t.kind == MshrTargetKind::kLoad &&
                                      t.tid == tid && t.seq > keep_seq;
                           }),
            e.targets.end());
    }
}

void
Mshr::sampleOccupancy()
{
    if (!pending_.empty())
        occupancyHist_.add(pending_.size());
}

void
Mshr::resetStats()
{
    secondaryMerges_ = 0;
    fullStalls_ = 0;
    occupancyHist_.reset();
}

void
Mshr::registerStats(StatsRegistry &reg, const std::string &prefix) const
{
    const StatsRegistry::Group g = reg.group(prefix);
    g.counter("secondary_merges", &secondaryMerges_,
              "misses coalesced onto an in-flight fill");
    g.counter("mshr_full_stalls", &fullStalls_,
              "requests rejected because the file (or a target list) "
              "was full");
    g.histogram("mshr_occupancy", &occupancyHist_,
                "in-flight misses per cycle (cycles with >= 1 pending)");
}

bool
Mshr::testDuplicatePrimary()
{
    if (pending_.empty() || full())
        return false;
    const MshrEntry &victim = pending_.front();
    pending_.push_back(
        MshrEntry{victim.lineAddr, victim.fillAt, nextAllocId_++, {}});
    return true;
}

bool
Mshr::testAddGhostTarget(InstSeqNum seq)
{
    if (pending_.empty())
        return false;
    pending_.front().targets.push_back(
        MshrTarget{seq, MshrTargetKind::kLoad});
    return true;
}

bool
Mshr::testOverflow(Cycle fillAt)
{
    if (entries_ == 0)
        return false;
    // Distinct impossible lines at a legal fill cycle: trips only the
    // occupancy invariant, not duplicate-primary or stuck-fill.
    while (pending_.size() <= entries_) {
        pending_.push_back(MshrEntry{~Addr{0} - pending_.size(), fillAt,
                                     nextAllocId_++, {}});
    }
    return true;
}

bool
Mshr::testStuckFill()
{
    if (pending_.empty())
        return false;
    pending_.front().fillAt = ~Cycle{0};
    return true;
}

} // namespace nda
