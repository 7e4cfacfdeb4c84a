/**
 * @file
 * In-memory span recorder for the traced run. A span is a named
 * interval of host time around one call into a simulator layer; spans
 * nest, and each remembers its parent and the replay it belongs to.
 * Nothing is written until the run ends (writeChromeTrace).
 *
 * Span names are "<layer>.<call>" — the layer is the text before the
 * first dot — so self time can be reported per layer.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
    std::string name;
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    int parent = -1;   ///< index of the enclosing span; -1 at a root
    int replay = 0;    ///< replay the span was recorded in

    double seconds() const { return (endNs - startNs) * 1e-9; }
};

class Tracer
{
  public:
    Tracer();

    /** All spans recorded from now on belong to `replay`. */
    void setReplay(int replay) { replay_ = replay; }

    int begin(std::string name);
    void end(int id);

    const std::vector<Span> &spans() const { return spans_; }

    /** Total duration of every span called `name`. */
    double totalSeconds(const std::string &name) const;
    /** Number of spans called `name`. */
    std::size_t count(const std::string &name) const;
    /** Durations of every span called `name`, in recording order. */
    std::vector<double> durations(const std::string &name) const;

    /**
     * Self time (duration minus the time covered by direct children)
     * summed per layer, over the subtrees of every root span called
     * `root`.
     */
    std::map<std::string, double>
    layerSelfSeconds(const std::string &root) const;

    /** Chrome trace_event JSON (load in chrome://tracing/Perfetto). */
    bool writeChromeTrace(const std::string &path) const;

  private:
    std::int64_t now() const;

    std::chrono::steady_clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<int> open_;
    int replay_ = 0;
};

/** RAII span: begins on construction, ends on destruction. */
class SpanScope
{
  public:
    SpanScope(Tracer &t, std::string name)
        : t_(t), id_(t.begin(std::move(name)))
    {
    }
    ~SpanScope() { t_.end(id_); }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

  private:
    Tracer &t_;
    int id_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
