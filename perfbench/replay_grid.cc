#include "replay_grid.hh"

#include <cctype>
#include <memory>
#include <utility>

#include "core/core_factory.hh"
#include "obs/stats_registry.hh"

namespace perfbench {

using namespace nda;

namespace {

/** Component counters read from each window's StatsRegistry, and the
 *  count they add to. */
const std::vector<std::pair<std::string, std::string>> kRegistryCounts = {
    {"core.iq.inserts", "core.iq_inserts"},
    {"core.perf.squash.total", "core.squashes"},
    {"core.mem.l1d.misses", "mem.l1d_misses"},
    {"core.mem.l2.misses", "mem.l2_misses"},
    {"core.mem.l1i.mshr_full_stalls", "mem.mshr_full_stalls"},
    {"core.mem.l1d.mshr_full_stalls", "mem.mshr_full_stalls"},
    {"core.mem.l2.mshr_full_stalls", "mem.mshr_full_stalls"},
    {"core.perf.branch.cond_mispredicts", "branch.cond_mispredicts"},
    {"core.bp.btb.misses", "branch.btb_misses"},
    {"core.perf.nda.deferred_broadcasts", "nda.deferred_broadcasts"},
    {"core.perf.nda.unsafe_marked", "nda.unsafe_marked"},
};

void
addRegistryCounts(CoreBase &core, Counts &counts)
{
    StatsRegistry reg;
    core.registerStats(reg, "core");
    for (const StatsRegistry::Stat &s : reg.stats()) {
        if (s.kind != StatsRegistry::Kind::kCounter)
            continue;
        for (const auto &[stat, count] : kRegistryCounts) {
            if (s.name == stat)
                counts[count] += *s.counter;
        }
    }
}

/** runWindow's statistics of a finished measured window. */
WindowStats
windowStats(const PerfCounters &c)
{
    WindowStats w;
    w.cpi = c.cpi();
    w.mlp = c.mlp();
    w.ilp = c.ilp();
    w.dispatchToIssue = c.dispatchToIssue.mean();
    w.commitFrac = c.cycleFraction(CycleClass::kCommit);
    w.memStallFrac = c.cycleFraction(CycleClass::kMemoryStall);
    w.backendStallFrac = c.cycleFraction(CycleClass::kBackendStall);
    w.frontendStallFrac = c.cycleFraction(CycleClass::kFrontendStall);
    w.condMispredictRate = c.condMispredictRate();
    w.instructions = c.committedInsts;
    w.cycles = c.cycles;
    return w;
}

/** Load `key` from the corpus, as runGrid's corpus probe does. */
bool
corpusLoad(CheckpointStore *corpus, const CkptKey &key,
           const SimConfig &cfg, SimSnapshot &out, Tracer &t,
           Counts &counts)
{
    if (!corpus)
        return false;
    std::uint64_t bytes = 0;
    bool hit = false;
    {
        SpanScope s(t, "ckpt.load");
        hit = corpus->load(key, out, &bytes);
    }
    if (hit && !out.structurallyCompatible(cfg))
        hit = false;
    if (hit)
        counts["ckpt.bytes_read"] += bytes;
    ++counts[hit ? "ckpt.hits" : "ckpt.misses"];
    return hit;
}

void
corpusStore(CheckpointStore *corpus, const ReplayCheckpoint &c,
            Tracer &t, Counts &counts)
{
    if (!corpus)
        return;
    SpanScope s(t, "ckpt.store");
    counts["ckpt.bytes_written"] += corpus->store(c.key, c.snap);
}

/** Phase 1 of runGrid: one shared checkpoint per (workload, sample). */
void
fastForwardPhase(const std::vector<const Workload *> &workloads,
                 const SimConfig &cfg0, const SampleParams &p,
                 CheckpointStore *corpus, Tracer &t, Counts &counts,
                 GridReplay &out)
{
    SpanScope phase(t, "harness.fast_forward");
    const std::uint64_t geom =
        geometryFingerprint(cfg0.memory, cfg0.core.predictor);
    out.checkpoints.resize(workloads.size() * p.samples);
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        const ReplayCheckpoint *prev = nullptr;
        Program prog;
        for (unsigned s = 0; s < p.samples; ++s) {
            ReplayCheckpoint &c = out.checkpoints[w * p.samples + s];
            const std::uint64_t seed =
                p.chainSamples ? p.baseSeed : p.baseSeed + s;
            const std::uint64_t target =
                p.chainSamples ? p.fastforwardInsts * (s + 1)
                               : p.fastforwardInsts;
            if (!p.chainSamples || s == 0) {
                SpanScope b(t, "workloads.build");
                prog = workloads[w]->build(seed);
            }
            c.key = CkptKey{workloads[w]->name(), seed, target, geom};
            c.fromCorpus = corpusLoad(corpus, c.key, cfg0, c.snap, t,
                                      counts);
            if (!c.fromCorpus) {
                if (prev) {
                    SpanScope e(t, "isa.extend");
                    c.snap = extendWarmCheckpoint(prog, prev->snap,
                                                  target);
                    counts["isa.ff_insts"] +=
                        target - prev->snap.arch.instCount;
                } else {
                    SpanScope b(t, "isa.fast_forward");
                    c.snap = buildWarmCheckpoint(
                        prog, cfg0.memory, cfg0.core.predictor, target);
                    counts["isa.ff_insts"] += target;
                }
                corpusStore(corpus, c, t, counts);
            }
            if (p.chainSamples)
                prev = &c;
        }
    }
}

/** Lower-case metric key of a profile, e.g. "restricted_loads". */
std::string
profileKey(Profile p)
{
    std::string key;
    for (const char ch : std::string(profileName(p))) {
        if (std::isalnum(static_cast<unsigned char>(ch)))
            key += static_cast<char>(
                std::tolower(static_cast<unsigned char>(ch)));
        else if (!key.empty() && key.back() != '_')
            key += '_';
    }
    if (key == "in_order")
        key = "inorder";
    return key;
}

} // namespace

GridReplay
replayGrid(const std::vector<const Workload *> &workloads,
           const std::vector<Profile> &profiles, const SampleParams &p,
           CheckpointStore *corpus, Tracer &t, Counts &counts)
{
    GridReplay out;
    std::vector<SimConfig> configs;
    std::vector<std::string> run_span;
    for (Profile prof : profiles) {
        configs.push_back(makeProfile(prof));
        run_span.push_back("core.run." + profileKey(prof));
    }
    const bool share = p.fastforwardInsts > 0;
    if (share)
        fastForwardPhase(workloads, configs[0], p, corpus, t, counts,
                         out);

    const std::size_t n_cfg = configs.size();
    const std::size_t total = workloads.size() * n_cfg * p.samples;
    std::vector<WindowStats> windows(total);
    {
        SpanScope phase(t, "harness.detailed");
        for (std::size_t task = 0; task < total; ++task) {
            SpanScope window(t, "harness.window");
            const std::size_t cell = task / p.samples;
            const unsigned s = static_cast<unsigned>(task % p.samples);
            const std::size_t w = cell / n_cfg;
            const std::size_t c = cell % n_cfg;
            const SimConfig &cfg = configs[c];
            const std::uint64_t seed =
                p.chainSamples ? p.baseSeed : p.baseSeed + s;
            Program prog;
            {
                SpanScope b(t, "workloads.build");
                prog = workloads[w]->build(seed);
            }
            std::unique_ptr<CoreBase> core;
            {
                SpanScope m(t, "core.make");
                core = makeCore(prog, cfg);
            }
            if (share) {
                const SimSnapshot &shared =
                    out.checkpoints[w * p.samples + s].snap;
                SimSnapshot own;
                const bool fits = shared.structurallyCompatible(cfg);
                if (!fits) {
                    const std::uint64_t target =
                        p.chainSamples ? p.fastforwardInsts * (s + 1)
                                       : p.fastforwardInsts;
                    SpanScope b(t, "isa.fast_forward");
                    own = buildWarmCheckpoint(prog, cfg.memory,
                                              cfg.core.predictor,
                                              target);
                    counts["isa.ff_insts"] += target;
                }
                SpanScope r(t, "core.restore");
                core->restoreCheckpoint(fits ? shared : own);
            }
            out.ok = out.ok && !core->halted();

            const Cycle c0 = core->cycle();
            const std::uint64_t i0 = core->committedInsts();
            {
                SpanScope r(t, run_span[c]);
                core->run(p.warmupInsts, ~Cycle{0});
            }
            out.ok = out.ok && !core->halted();
            core->resetCounters();
            {
                SpanScope r(t, run_span[c]);
                core->run(p.measureInsts, ~Cycle{0});
            }
            out.ok = out.ok && !core->halted();

            const std::uint64_t insts = core->committedInsts() - i0;
            counts["core.cycles"] += core->cycle() - c0;
            counts["core.committed_insts"] += insts;
            counts["core.insts." + profileKey(profiles[c])] += insts;
            if (!cfg.inOrder)
                counts["core.iq_committed_insts"] += insts;
            ++counts["harness.windows"];
            addRegistryCounts(*core, counts);
            windows[task] = windowStats(core->counters());
        }
    }

    std::vector<WindowStats> cell_windows(p.samples);
    for (std::size_t cell = 0; cell < total / p.samples; ++cell) {
        for (unsigned s = 0; s < p.samples; ++s)
            cell_windows[s] = windows[cell * p.samples + s];
        out.cells.push_back(aggregateWindows(cell_windows));
    }
    return out;
}

void
gridLayerMetrics(const Tracer &t, const Counts &counts, Metrics &m)
{
    const auto count = [&counts](const std::string &name) {
        const auto it = counts.find(name);
        return it == counts.end() ? 0.0
                                  : static_cast<double>(it->second);
    };
    const auto mean_ms = [&t](const std::string &span) {
        return ratio(t.totalSeconds(span) * 1e3,
                     static_cast<double>(t.count(span)));
    };
    const double op = t.totalSeconds("op");

    const std::vector<double> windows = t.durations("harness.window");
    m.set("harness.window_ms.p50", percentile(windows, 0.50) * 1e3, "ms");
    m.set("harness.window_ms.p95", percentile(windows, 0.95) * 1e3, "ms");
    m.set("harness.ff_share",
          ratio(t.totalSeconds("harness.fast_forward"), op), "ratio");

    m.set("workloads.build_ms", mean_ms("workloads.build"), "ms");
    m.set("workloads.build_share",
          ratio(t.totalSeconds("workloads.build"), op), "ratio");

    m.set("core.make_ms", mean_ms("core.make"), "ms");
    m.set("core.make_share", ratio(t.totalSeconds("core.make"), op),
          "ratio");
    m.set("core.restore_ms", mean_ms("core.restore"), "ms");
    double run_s = 0.0;
    for (std::size_t i = 0;
         i < static_cast<std::size_t>(Profile::kNumProfiles); ++i) {
        const std::string key = profileKey(static_cast<Profile>(i));
        const double s = t.totalSeconds("core.run." + key);
        run_s += s;
        m.set("core.kips." + key, ratio(count("core.insts." + key), s) / 1e3,
              "kinst/s");
    }
    m.set("core.run_share", ratio(run_s, op), "ratio");
    m.set("core.ooo_kips", m.find("core.kips.ooo")->value, "kinst/s");
    m.set("core.host_ns_per_cycle", ratio(run_s * 1e9, count("core.cycles")),
          "ns");
    for (const char *name :
         {"core.cycles", "core.committed_insts", "core.iq_inserts",
          "core.squashes", "mem.l1d_misses", "mem.l2_misses",
          "mem.mshr_full_stalls", "branch.cond_mispredicts",
          "branch.btb_misses", "nda.deferred_broadcasts",
          "nda.unsafe_marked"})
        m.set(name, count(name), "count");
    m.set("core.useful_ratio",
          ratio(count("core.iq_committed_insts"), count("core.iq_inserts")),
          "ratio");

    const double ff_s =
        t.totalSeconds("isa.fast_forward") + t.totalSeconds("isa.extend");
    m.set("isa.ff_insts", count("isa.ff_insts"), "count");
    m.set("isa.ff_mips", ratio(count("isa.ff_insts"), ff_s) / 1e6, "MIPS");

    const double hits = count("ckpt.hits");
    m.set("ckpt.hit_ratio", ratio(hits, hits + count("ckpt.misses")),
          "ratio");
    m.set("ckpt.bytes_read", count("ckpt.bytes_read"), "bytes");
    m.set("ckpt.bytes_written", count("ckpt.bytes_written"), "bytes");
    m.set("ckpt.load_mb_s",
          ratio(count("ckpt.bytes_read"), t.totalSeconds("ckpt.load")) / 1e6,
          "MB/s");
    m.set("ckpt.load_share", ratio(t.totalSeconds("ckpt.load"), op),
          "ratio");
    m.set("ckpt.store_mb_s",
          ratio(count("ckpt.bytes_written"), t.totalSeconds("ckpt.store")) /
              1e6,
          "MB/s");
}

} // namespace perfbench
