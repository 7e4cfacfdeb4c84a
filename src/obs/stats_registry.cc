#include "obs/stats_registry.hh"

#include <algorithm>

#include "common/log.hh"
#include "obs/json_writer.hh"

namespace nda {

void
StatsRegistry::addStat(Stat s)
{
    for (const Stat &existing : stats_) {
        NDA_ASSERT(existing.name != s.name,
                   "duplicate stat registration '%s'", s.name.c_str());
        // A name cannot be both a leaf and a group ("core" vs
        // "core.x"): the JSON dump would emit a duplicate key.
        const bool nests =
            existing.name.rfind(s.name + ".", 0) == 0 ||
            s.name.rfind(existing.name + ".", 0) == 0;
        NDA_ASSERT(!nests, "stat '%s' collides with group of '%s'",
                   s.name.c_str(), existing.name.c_str());
    }
    stats_.push_back(std::move(s));
}

void
StatsRegistry::addCounter(const std::string &name,
                          const std::uint64_t *v,
                          const std::string &desc)
{
    NDA_ASSERT(v != nullptr, "stat '%s' bound to null", name.c_str());
    Stat s;
    s.name = name;
    s.desc = desc;
    s.kind = Kind::kCounter;
    s.counter = v;
    addStat(std::move(s));
}

void
StatsRegistry::addFormula(const std::string &name,
                          std::function<double()> f,
                          const std::string &desc)
{
    NDA_ASSERT(static_cast<bool>(f), "formula stat '%s' is empty",
               name.c_str());
    Stat s;
    s.name = name;
    s.desc = desc;
    s.kind = Kind::kFormula;
    s.formula = std::move(f);
    addStat(std::move(s));
}

void
StatsRegistry::addHistogram(const std::string &name, const Histogram *h,
                            const std::string &desc)
{
    NDA_ASSERT(h != nullptr, "stat '%s' bound to null", name.c_str());
    Stat s;
    s.name = name;
    s.desc = desc;
    s.kind = Kind::kHistogram;
    s.hist = h;
    addStat(std::move(s));
}

std::vector<std::string>
StatsRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(stats_.size());
    for (const Stat &s : stats_)
        out.push_back(s.name);
    std::sort(out.begin(), out.end());
    return out;
}

std::string
StatsRegistry::dumpJson() const
{
    // Sort by full name so siblings group together, then walk the
    // dotted paths maintaining a stack of open objects.
    std::vector<const Stat *> sorted;
    sorted.reserve(stats_.size());
    for (const Stat &s : stats_)
        sorted.push_back(&s);
    std::sort(sorted.begin(), sorted.end(),
              [](const Stat *a, const Stat *b) {
                  return a->name < b->name;
              });

    auto split = [](const std::string &name) {
        std::vector<std::string> parts;
        std::size_t start = 0;
        for (std::size_t dot = name.find('.'); dot != std::string::npos;
             dot = name.find('.', start)) {
            parts.push_back(name.substr(start, dot - start));
            start = dot + 1;
        }
        parts.push_back(name.substr(start));
        return parts;
    };

    JsonWriter w;
    w.beginObject();
    std::vector<std::string> open; // currently open group path
    for (const Stat *s : sorted) {
        const std::vector<std::string> parts = split(s->name);
        // Close groups that are no longer a prefix of this stat.
        std::size_t common = 0;
        while (common < open.size() && common + 1 < parts.size() &&
               open[common] == parts[common]) {
            ++common;
        }
        while (open.size() > common) {
            w.endObject();
            open.pop_back();
        }
        // Open the missing groups.
        for (std::size_t i = open.size(); i + 1 < parts.size(); ++i) {
            w.key(parts[i]);
            w.beginObject();
            open.push_back(parts[i]);
        }
        w.key(parts.back());
        switch (s->kind) {
          case Kind::kCounter:
            w.value(*s->counter);
            break;
          case Kind::kFormula:
            w.value(s->formula());
            break;
          case Kind::kHistogram:
            w.raw(s->hist->toJson());
            break;
        }
    }
    while (!open.empty()) {
        w.endObject();
        open.pop_back();
    }
    w.endObject();
    return w.str();
}

} // namespace nda
