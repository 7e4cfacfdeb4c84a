#include "mem/cache.hh"

#include "common/log.hh"
#include "obs/stats_registry.hh"

namespace nda {

Cache::Cache(const CacheParams &params)
    : params_(params)
{
    NDA_ASSERT(params_.ways > 0, "cache needs at least one way");
    NDA_ASSERT(params_.lineBytes > 0 &&
                   (params_.lineBytes & (params_.lineBytes - 1)) == 0,
               "line size must be a power of two");
    const std::size_t num_lines = params_.sizeBytes / params_.lineBytes;
    NDA_ASSERT(num_lines % params_.ways == 0,
               "size/line/ways mismatch in %s", params_.name.c_str());
    numSets_ = static_cast<unsigned>(num_lines / params_.ways);
    lines_.resize(num_lines);
}

Cache::Snapshot
Cache::save() const
{
    return Snapshot{lines_, useClock_, hits_, misses_, fills_};
}

void
Cache::restore(const Snapshot &snap)
{
    NDA_ASSERT(snap.lines.size() == lines_.size(),
               "cache snapshot geometry mismatch in %s (%zu vs %zu "
               "lines)",
               params_.name.c_str(), snap.lines.size(), lines_.size());
    lines_ = snap.lines;
    useClock_ = snap.useClock;
    hits_ = snap.hits;
    misses_ = snap.misses;
    fills_ = snap.fills;
}

Cache::Slot
Cache::walk(Addr addr)
{
    const Addr line = lineAddr(addr);
    Slot s;
    s.tag = tagOf(line);
    Line *base =
        &lines_[static_cast<std::size_t>(setIndex(line)) * params_.ways];
    Line *invalid = nullptr;
    Line *lru = base;
    for (unsigned w = 0; w < params_.ways; ++w) {
        Line &l = base[w];
        if (!l.valid) {
            if (!invalid)
                invalid = &l;
        } else if (l.tag == s.tag) {
            s.hit = &l;
            return s;
        } else if (l.lastUse < lru->lastUse) {
            lru = &l;
        }
    }
    s.victim = invalid ? invalid : lru;
    return s;
}

bool
Cache::useHit(const Slot &s)
{
    if (!s.hit)
        return false;
    s.hit->lastUse = ++useClock_;
    ++hits_;
    return true;
}

void
Cache::install(const Slot &s)
{
    ++useClock_;
    Line *line = s.hit;
    if (!line) {
        ++fills_;
        line = s.victim;
        line->valid = true;
        line->tag = s.tag;
    }
    line->lastUse = useClock_;
}

bool
Cache::access(Addr addr)
{
    const Slot s = walk(addr);
    if (useHit(s))
        return true;
    countMiss();
    install(s);
    return false;
}

bool
Cache::touch(Addr addr)
{
    return useHit(walk(addr));
}

bool
Cache::probe(Addr addr) const
{
    return const_cast<Cache *>(this)->walk(addr).hit != nullptr;
}

void
Cache::fill(Addr addr)
{
    install(walk(addr));
}

void
Cache::flush(Addr addr)
{
    if (Line *line = walk(addr).hit)
        line->valid = false;
}

void
Cache::flushAll()
{
    for (auto &line : lines_)
        line.valid = false;
}

void
Cache::registerStats(StatsRegistry &reg,
                     const std::string &prefix) const
{
    const StatsRegistry::Group g = reg.group(prefix);
    g.counter("hits", &hits_, "lookups that hit");
    g.counter("misses", &misses_, "lookups that missed");
    g.counter("fills", &fills_,
              "line allocations (miss fills + explicit fills)");
    g.formula("miss_rate",
              [this] {
                  const std::uint64_t total = hits_ + misses_;
                  return total ? static_cast<double>(misses_) /
                                     static_cast<double>(total)
                               : 0.0;
              },
              "misses / lookups");
}

} // namespace nda
