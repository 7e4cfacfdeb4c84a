#include "trace.hh"

#include <cstdio>

namespace perfbench {

namespace {

std::string
layerOf(const std::string &name)
{
    return name.substr(0, name.find('.'));
}

} // namespace

Tracer::Tracer() : epoch_(std::chrono::steady_clock::now()) {}

std::int64_t
Tracer::now() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

int
Tracer::begin(std::string name)
{
    Span s;
    s.name = std::move(name);
    s.parent = open_.empty() ? -1 : open_.back();
    s.replay = replay_;
    s.startNs = now();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
}

void
Tracer::end(int id)
{
    spans_[id].endNs = now();
    // Spans close in LIFO order (SpanScope); pop through `id` anyway
    // so a mismatched end cannot leave a stale parent behind.
    while (!open_.empty()) {
        const int top = open_.back();
        open_.pop_back();
        if (top == id)
            break;
    }
}

double
Tracer::totalSeconds(const std::string &name) const
{
    double total = 0.0;
    for (const Span &s : spans_) {
        if (s.name == name)
            total += s.seconds();
    }
    return total;
}

std::size_t
Tracer::count(const std::string &name) const
{
    std::size_t n = 0;
    for (const Span &s : spans_)
        n += s.name == name;
    return n;
}

std::vector<double>
Tracer::durations(const std::string &name) const
{
    std::vector<double> out;
    for (const Span &s : spans_) {
        if (s.name == name)
            out.push_back(s.seconds());
    }
    return out;
}

std::map<std::string, double>
Tracer::layerSelfSeconds(const std::string &root) const
{
    // A span belongs to the requested subtrees iff its root ancestor
    // is called `root`; parents precede children in spans_.
    std::vector<char> inside(spans_.size(), 0);
    std::vector<double> self(spans_.size(), 0.0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        inside[i] = s.parent < 0 ? s.name == root : inside[s.parent];
        self[i] = s.seconds();
        if (s.parent >= 0)
            self[s.parent] -= s.seconds();
    }
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (inside[i])
            out[layerOf(spans_[i].name)] += self[i];
    }
    return out;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "{\"traceEvents\":[");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                     "\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"replay\":%d,\"parent\":%d}}",
                     i ? "," : "", s.name.c_str(), layerOf(s.name).c_str(),
                     s.startNs * 1e-3, (s.endNs - s.startNs) * 1e-3,
                     s.replay, s.parent);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
