#include "branch/btb.hh"

#include "common/log.hh"
#include "obs/stats_registry.hh"

namespace nda {

Btb::Btb(const BtbParams &p)
    : params_(p)
{
    NDA_ASSERT(params_.ways > 0 && params_.entries % params_.ways == 0,
               "btb entries/ways mismatch");
    numSets_ = params_.entries / params_.ways;
    entries_.resize(params_.entries);
}

Btb::Snapshot
Btb::save() const
{
    return Snapshot{entries_, useClock_, hits_, misses_, updates_};
}

void
Btb::restore(const Snapshot &snap)
{
    NDA_ASSERT(snap.entries.size() == entries_.size(),
               "btb snapshot geometry mismatch (%zu vs %zu entries)",
               snap.entries.size(), entries_.size());
    entries_ = snap.entries;
    useClock_ = snap.useClock;
    hits_ = snap.hits;
    misses_ = snap.misses;
    updates_ = snap.updates;
}

Btb::Entry *
Btb::find(Addr pc)
{
    const unsigned set = setIndex(pc);
    const Addr tag = tagOf(pc);
    Entry *base = &entries_[static_cast<std::size_t>(set) * params_.ways];
    for (unsigned w = 0; w < params_.ways; ++w) {
        if (base[w].valid && base[w].tag == tag)
            return &base[w];
    }
    return nullptr;
}

const Btb::Entry *
Btb::findConst(Addr pc) const
{
    return const_cast<Btb *>(this)->find(pc);
}

std::optional<Addr>
Btb::lookup(Addr pc)
{
    ++useClock_;
    if (Entry *e = find(pc)) {
        e->lastUse = useClock_;
        ++hits_;
        return e->target;
    }
    ++misses_;
    return std::nullopt;
}

std::optional<Addr>
Btb::probe(Addr pc) const
{
    if (const Entry *e = findConst(pc))
        return e->target;
    return std::nullopt;
}

void
Btb::update(Addr pc, Addr target)
{
    ++useClock_;
    ++updates_;
    if (Entry *e = find(pc)) {
        e->target = target;
        e->lastUse = useClock_;
        return;
    }
    const unsigned set = setIndex(pc);
    Entry *base = &entries_[static_cast<std::size_t>(set) * params_.ways];
    Entry *victim = &base[0];
    for (unsigned w = 0; w < params_.ways; ++w) {
        if (!base[w].valid) {
            victim = &base[w];
            break;
        }
        if (base[w].lastUse < victim->lastUse)
            victim = &base[w];
    }
    victim->valid = true;
    victim->tag = tagOf(pc);
    victim->target = target;
    victim->lastUse = useClock_;
}

void
Btb::reset()
{
    for (auto &e : entries_)
        e.valid = false;
    useClock_ = 0;
}

void
Btb::registerStats(StatsRegistry &reg, const std::string &prefix) const
{
    const StatsRegistry::Group g = reg.group(prefix);
    g.counter("hits", &hits_, "lookups that hit");
    g.counter("misses", &misses_, "lookups that missed");
    g.counter("updates", &updates_,
              "installs/refreshes (at execution; never reverted)");
    g.formula("hit_rate",
              [this] {
                  const std::uint64_t total = hits_ + misses_;
                  return total ? static_cast<double>(hits_) /
                                     static_cast<double>(total)
                               : 0.0;
              },
              "hits / lookups");
}

} // namespace nda
