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

Cache::Line *
Cache::findLine(Addr addr)
{
    const Addr line = lineAddr(addr);
    const unsigned set = setIndex(line);
    const Addr tag = tagOf(line);
    Line *base = &lines_[static_cast<std::size_t>(set) * params_.ways];
    for (unsigned w = 0; w < params_.ways; ++w) {
        if (base[w].valid && base[w].tag == tag)
            return &base[w];
    }
    return nullptr;
}

bool
Cache::access(Addr addr)
{
    if (accessNoFill(addr))
        return true;
    fill(addr);
    return false;
}

bool
Cache::accessNoFill(Addr addr)
{
    ++useClock_;
    if (Line *line = findLine(addr)) {
        line->lastUse = useClock_;
        ++hits_;
        return true;
    }
    ++misses_;
    return false;
}

bool
Cache::probe(Addr addr) const
{
    return const_cast<Cache *>(this)->findLine(addr) != nullptr;
}

void
Cache::fill(Addr addr)
{
    ++useClock_;
    if (Line *line = findLine(addr)) {
        line->lastUse = useClock_;
        return;
    }
    ++fills_;
    const Addr line_addr = lineAddr(addr);
    const unsigned set = setIndex(line_addr);
    Line *base = &lines_[static_cast<std::size_t>(set) * params_.ways];
    Line *victim = &base[0];
    for (unsigned w = 0; w < params_.ways; ++w) {
        if (!base[w].valid) {
            victim = &base[w];
            break;
        }
        if (base[w].lastUse < victim->lastUse)
            victim = &base[w];
    }
    victim->valid = true;
    victim->tag = tagOf(line_addr);
    victim->lastUse = useClock_;
}

void
Cache::flush(Addr addr)
{
    if (Line *line = findLine(addr))
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
