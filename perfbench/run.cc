#include "run.hh"

#include <sys/resource.h>

#include <cstdio>
#include <utility>

namespace perfbench {

namespace {

/** Every per-layer metric of the traced run, with its unit. */
const std::vector<std::pair<std::string, std::string>> kLayerMetrics = {
    {"harness.window_ms.p50", "ms"},
    {"harness.window_ms.p95", "ms"},
    {"harness.ff_share", "ratio"},
    {"harness.self_share", "ratio"},
    {"workloads.build_ms", "ms"},
    {"workloads.build_share", "ratio"},
    {"workloads.self_share", "ratio"},
    {"core.make_ms", "ms"},
    {"core.make_share", "ratio"},
    {"core.restore_ms", "ms"},
    {"core.run_share", "ratio"},
    {"core.ooo_kips", "kinst/s"},
    {"core.host_ns_per_cycle", "ns"},
    {"core.kips.ooo", "kinst/s"},
    {"core.kips.permissive", "kinst/s"},
    {"core.kips.permissive_br", "kinst/s"},
    {"core.kips.strict", "kinst/s"},
    {"core.kips.strict_br", "kinst/s"},
    {"core.kips.restricted_loads", "kinst/s"},
    {"core.kips.full_protection", "kinst/s"},
    {"core.kips.inorder", "kinst/s"},
    {"core.kips.invisispec_spectre", "kinst/s"},
    {"core.kips.invisispec_future", "kinst/s"},
    {"core.cycles", "count"},
    {"core.committed_insts", "count"},
    {"core.iq_inserts", "count"},
    {"core.squashes", "count"},
    {"core.useful_ratio", "ratio"},
    {"core.self_share", "ratio"},
    {"mem.l1d_misses", "count"},
    {"mem.l2_misses", "count"},
    {"mem.mshr_full_stalls", "count"},
    {"branch.cond_mispredicts", "count"},
    {"branch.btb_misses", "count"},
    {"nda.deferred_broadcasts", "count"},
    {"nda.unsafe_marked", "count"},
    {"isa.ff_mips", "MIPS"},
    {"isa.ff_insts", "count"},
    {"isa.self_share", "ratio"},
    {"ckpt.load_mb_s", "MB/s"},
    {"ckpt.parse_mb_s", "MB/s"},
    {"ckpt.load_share", "ratio"},
    {"ckpt.store_mb_s", "MB/s"},
    {"ckpt.serialize_mb_s", "MB/s"},
    {"ckpt.hit_ratio", "ratio"},
    {"ckpt.bytes_read", "bytes"},
    {"ckpt.bytes_written", "bytes"},
    {"ckpt.evictions", "count"},
    {"ckpt.self_share", "ratio"},
    {"fuzz.seed_ms", "ms"},
    {"fuzz.checker_share", "ratio"},
    {"fuzz.executed", "count"},
    {"fuzz.skipped", "count"},
    {"fuzz.failures", "count"},
    {"fuzz.self_share", "ratio"},
    {"dift.share", "ratio"},
    {"service.hit_s", "s"},
    {"service.miss_s", "s"},
    {"trace.overhead", "ratio"},
    {"trace.coverage", "ratio"},
};

/** " wall/cpu" per element, for the stderr notes. */
std::string
pairs(const std::vector<double> &wall, const std::vector<double> &cpu)
{
    std::string out;
    char buf[64];
    for (std::size_t i = 0; i < wall.size(); ++i) {
        std::snprintf(buf, sizeof(buf), " %.4f/%.4f", wall[i], cpu[i]);
        out += buf;
    }
    return out;
}

/** Layers whose self time is reported as "<layer>.self_share". */
const char *const kLayers[] = {"harness", "workloads", "core",
                               "isa",     "ckpt",      "fuzz"};

double
peakRssMb()
{
    struct rusage ru {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/** Host seconds of the "op" roots recorded since span `from`. */
double
opSecondsSince(const Tracer &t, std::size_t from)
{
    double s = 0.0;
    for (std::size_t i = from; i < t.spans().size(); ++i) {
        const Span &span = t.spans()[i];
        if (span.parent < 0 && span.name == "op")
            s += span.seconds();
    }
    return s;
}

void
addCounts(Counts &into, const Counts &from)
{
    for (const auto &[name, n] : from)
        into[name] += n;
}

/** Replay `ops` twice each; count failures in `out`. */
void
tracedReplays(BenchWorkload &w, const std::vector<std::size_t> &ops,
              Tracer &t, Counts &counts, std::vector<double> &replay_s,
              RunOutcome &out)
{
    int replay_id = 0;
    for (const std::size_t i : ops) {
        Counts first;
        for (int rep = 0; rep < 2; ++rep) {
            t.setReplay(replay_id++);
            const std::size_t from = t.spans().size();
            Counts c;
            bool ok = w.replay(i, t, c);
            replay_s.push_back(opSecondsSince(t, from));
            if (rep == 0) {
                first = c;
                addCounts(counts, c);
            } else if (c != first) {
                // A simulated statistic changed between two replays of
                // the same op: the simulation is not deterministic.
                for (const auto &[name, n] : c) {
                    if (first[name] != n)
                        note("replays of op %zu disagree on %s: %llu vs "
                             "%llu",
                             i, name.c_str(),
                             static_cast<unsigned long long>(first[name]),
                             static_cast<unsigned long long>(n));
                }
                ok = false;
            }
            ++out.attempted;
            out.failed += !ok;
        }
    }
}

} // namespace

RunOutcome
runBenchmark(const WorkloadFactory &make, const RunOptions &opt)
{
    RunOutcome out;
    const auto count_op = [&out](const OpResult &r) {
        ++out.attempted;
        out.failed += !r.ok;
    };

    // Set-up: make the inputs and run the first, cold op — several
    // times, each from scratch, reporting the median. The traced run
    // reports no set-up time, so it sets up once.
    std::vector<double> setup_s, setup_cpu_s;
    std::unique_ptr<BenchWorkload> w;
    for (unsigned rep = 0; rep < (opt.trace ? 1u : kSetupReps); ++rep) {
        w.reset();
        const Clock::time_point t0 = Clock::now();
        const double cpu0 = threadCpuSeconds();
        w = make();
        count_op(w->setup());
        setup_s.push_back(secondsSince(t0));
        setup_cpu_s.push_back(threadCpuSeconds() - cpu0);
    }

    std::vector<double> op_s, op_cpu_s;
    double detailed = 0.0, items = 0.0;
    const Clock::time_point start = Clock::now();
    while (op_s.size() < opt.minOps || op_s.size() % w->opGroup() != 0 ||
           secondsSince(start) < opt.seconds) {
        const std::size_t i = op_s.size();
        const OpResult r = w->op(i);
        count_op(r);
        op_s.push_back(r.seconds);
        op_cpu_s.push_back(r.cpuSeconds);
        detailed += w->detailedInsts(i);
        items += w->items(i);
    }
    const double op_total = sum(op_s);
    // Wall against thread-CPU time tells a slow host phase in which
    // the thread was descheduled (steal) from one in which it ran
    // slower (frequency, cache).
    note("set-up seconds, wall/cpu:%s", pairs(setup_s, setup_cpu_s).c_str());
    note("%zu timed ops, median %.4f s (cpu %.4f s); op seconds, "
         "wall/cpu:%s",
         op_s.size(), median(op_s), median(op_cpu_s),
         pairs(op_s, op_cpu_s).c_str());

    if (!opt.trace) {
        Metrics &m = out.metrics;
        m.set("setup_s", median(setup_s), "s");
        m.set("op_s", median(op_s), "s");
        m.set("items_per_s", ratio(items, op_total), "1/s");
        m.set("detailed_kips", ratio(detailed, op_total) / 1e3, "kinst/s");
        m.set("peak_rss_mb", peakRssMb(), "MB");
        return out;
    }

    Tracer t;
    Counts counts;
    std::vector<double> replay_s;
    const std::vector<std::size_t> replayed = w->replayOps(op_s.size());
    tracedReplays(*w, replayed, t, counts, replay_s, out);
    if (!opt.traceOut.empty() && !t.writeChromeTrace(opt.traceOut))
        note("cannot write trace '%s'", opt.traceOut.c_str());

    Metrics layer;
    w->layerMetrics(t, counts, layer);
    const double traced_s = t.totalSeconds("op");
    const std::map<std::string, double> self = t.layerSelfSeconds("op");
    for (const char *l : kLayers) {
        const auto it = self.find(l);
        layer.set(std::string(l) + ".self_share",
                  ratio(it == self.end() ? 0.0 : it->second, traced_s),
                  "ratio");
    }
    const auto root_self = self.find("op");
    layer.set("trace.coverage",
              1.0 - ratio(root_self == self.end() ? 0.0 : root_self->second,
                          traced_s),
              "ratio");
    std::vector<double> untraced;
    for (const std::size_t i : replayed)
        untraced.push_back(op_s[i]);
    layer.set("trace.overhead",
              ratio(median(replay_s), median(untraced)) - 1.0, "ratio");

    for (const auto &[name, unit] : kLayerMetrics) {
        const Metric *m = layer.find(name);
        out.metrics.set(name, m ? m->value : 0.0, unit);
    }
    for (const Metric &m : layer.all()) {
        if (!out.metrics.find(m.name))
            note("internal: metric %s is not in the per-layer list",
                 m.name.c_str());
    }
    return out;
}

std::string
resultLine(const RunOutcome &out)
{
    std::string s = "{\"correct\": ";
    s += out.failed == 0 ? "true" : "false";
    s += ", \"attempted\": " + std::to_string(out.attempted);
    s += ", \"failed\": " + std::to_string(out.failed);
    s += ", \"metrics\": {";
    bool first = true;
    for (const Metric &m : out.metrics.all()) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g", m.value);
        s += (first ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
             ", \"unit\": \"" + m.unit + "\"}";
        first = false;
    }
    return s + "}}";
}

} // namespace perfbench
