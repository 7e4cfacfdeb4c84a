/**
 * @file
 * Named statistics registry in the spirit of gem5's stats framework:
 * every stat-bearing component *binds* its existing counters into a
 * per-run registry under a hierarchical dotted name, and the registry
 * renders the whole tree on demand as nested JSON (for manifests and
 * tooling).
 *
 * Registration is pointer binding only: the hot path keeps mutating
 * its own plain `std::uint64_t` members / `Histogram`s with zero
 * added indirection; the registry dereferences at dump time. The
 * bound objects must therefore outlive the registry's last dump —
 * the intended pattern is a registry per simulation window, torn
 * down with the core it observed.
 */

#ifndef NDASIM_OBS_STATS_REGISTRY_HH
#define NDASIM_OBS_STATS_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/histogram.hh"

namespace nda {

/** Registry of named stats (scalar counters, formulas, histograms). */
class StatsRegistry
{
  public:
    enum class Kind : std::uint8_t { kCounter, kFormula, kHistogram };

    /** One registered stat. Exactly one binding is active per Kind. */
    struct Stat {
        std::string name; ///< full dotted path, e.g. "core.commit.insts"
        std::string desc;
        Kind kind = Kind::kCounter;
        const std::uint64_t *counter = nullptr;
        std::function<double()> formula;
        const Histogram *hist = nullptr;
    };

    /**
     * Prefix-carrying view used by components to register under their
     * own subtree without knowing the full path:
     *
     *   void Cache::registerStats(StatsRegistry::Group g) {
     *       g.counter("hits", &hits_, "lookups that hit");
     *   }
     *   cache.registerStats(reg.group("mem.l1d"));
     */
    class Group
    {
      public:
        Group(StatsRegistry &reg, std::string prefix)
            : reg_(&reg), prefix_(std::move(prefix))
        {
        }

        /** Subgroup `prefix.sub`. */
        Group
        group(const std::string &sub) const
        {
            return Group(*reg_, join(sub));
        }

        void
        counter(const std::string &name, const std::uint64_t *v,
                const std::string &desc) const
        {
            reg_->addCounter(join(name), v, desc);
        }

        void
        formula(const std::string &name, std::function<double()> f,
                const std::string &desc) const
        {
            reg_->addFormula(join(name), std::move(f), desc);
        }

        void
        histogram(const std::string &name, const Histogram *h,
                  const std::string &desc) const
        {
            reg_->addHistogram(join(name), h, desc);
        }

      private:
        std::string
        join(const std::string &leaf) const
        {
            return prefix_.empty() ? leaf : prefix_ + "." + leaf;
        }

        StatsRegistry *reg_;
        std::string prefix_;
    };

    Group group(const std::string &prefix) { return Group(*this, prefix); }

    /** Bind a live counter. Duplicate names panic: a silently
     *  shadowed stat is exactly the regression this layer exists to
     *  catch. */
    void addCounter(const std::string &name, const std::uint64_t *v,
                    const std::string &desc);

    /** Bind a derived value evaluated at dump time. */
    void addFormula(const std::string &name, std::function<double()> f,
                    const std::string &desc);

    /** Bind a live histogram. */
    void addHistogram(const std::string &name, const Histogram *h,
                      const std::string &desc);

    std::size_t size() const { return stats_.size(); }
    const std::vector<Stat> &stats() const { return stats_; }

    /** All registered names, sorted — the stats *schema*. CI diffs
     *  this against tests/golden/stats_schema.txt so silently dropped
     *  counters fail the build. */
    std::vector<std::string> names() const;

    /**
     * Nested JSON object keyed by the dotted hierarchy:
     * "core.commit.insts" renders as {"core":{"commit":{"insts":N}}}.
     * Keys are sorted; histograms render via Histogram::toJson().
     */
    std::string dumpJson() const;

  private:
    void addStat(Stat s);

    std::vector<Stat> stats_;
};

} // namespace nda

#endif // NDASIM_OBS_STATS_REGISTRY_HH
