/**
 * @file
 * Shared helpers for the figure/table regeneration binaries.
 */

#ifndef NDASIM_BENCH_BENCH_COMMON_HH
#define NDASIM_BENCH_BENCH_COMMON_HH

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ckpt/checkpoint_store.hh"
#include "common/flags.hh"
#include "common/log.hh"
#include "common/thread_pool.hh"
#include "core/core_factory.hh"
#include "core/ooo_core.hh"
#include "debug/pipe_trace.hh"
#include "harness/runner.hh"
#include "obs/hotspot_profiler.hh"
#include "obs/run_manifest.hh"
#include "obs/trace_export.hh"

namespace nda {

/**
 * Logging rows shared by every bench binary. Benches narrate via
 * NDA_INFORM by default; -q/--quiet and -v/--verbose adjust.
 */
inline void
addLogFlags(FlagTable &t)
{
    logVerbosity = std::max(logVerbosity, 1);
    t.flag("-q,--quiet", "warnings and results only",
           [] { logVerbosity = 0; });
    t.flag("-v,--verbose", "verbose (debug-level) logging",
           [] { logVerbosity = 2; });
}

/** The shared sampling rows, writing into `p` (whose jobs default
 *  becomes the hardware thread count); `quick`, when given, also
 *  records whether --quick was seen. */
inline void
addSampleFlags(FlagTable &t, SampleParams &p, bool *quick = nullptr)
{
    p.jobs = defaultConcurrency();
    t.flag("--quick", "1 sample, 10k warmup, 30k measured", [&p, quick] {
        p.samples = 1;
        p.warmupInsts = 10'000;
        p.measureInsts = 30'000;
        if (quick)
            *quick = true;
    });
    t.number("--samples", "N", "independently-seeded samples per cell",
             &p.samples);
    t.number("--insts,--measure", "N",
             "measured instructions per window", &p.measureInsts);
    t.number("--warmup", "N",
             "detailed warm-up instructions per window", &p.warmupInsts);
    t.number("--fastforward", "N",
             "functional fast-forward (with cache/predictor warming)\n"
             "before each window (default: 0)",
             &p.fastforwardInsts);
    t.flag("--chain",
           "chained sampling: --fastforward becomes a stride and\n"
           "sample s measures offset (s+1) x stride of ONE run",
           &p.chainSamples);
    t.number("--seed", "N", "base RNG seed (sample s uses seed+s)",
             &p.baseSeed);
    t.number<unsigned>(
        "--jobs", "N",
        "concurrent simulation windows (default, or 0: hardware\n"
        "threads; results are identical for any N)",
        [&p](unsigned n) {
            p.jobs = n ? n : defaultConcurrency();
        });
}

/**
 * The --mshr=N row of the grid and fuzzing benches: MSHR entries per
 * L1 file on every simulated profile (DESIGN.md §13).
 */
inline void
addMshrFlag(FlagTable &t, unsigned *entries)
{
    t.number("--mshr", "N",
             "MSHR entries per L1 file (default 0: eager fills, the\n"
             "OoO core keeps any number of misses in flight;\n"
             "1: blocking; >= 2: at most N misses in flight)",
             entries);
}

/**
 * Observability knobs shared by every bench binary: where to write
 * the run manifest and the pipeline trace, which trace renderer to
 * use, and the wall-clock phase timings the manifest reports.
 */
struct BenchObs {
    std::string statsOut;    ///< --stats-out= (empty: no manifest)
    std::string traceOut;    ///< --trace-out= (empty: no trace)
    TraceFormat traceFormat = TraceFormat::kChrome;
    PhaseTimings timings;

    bool wantStats() const { return !statsOut.empty(); }
    bool wantTrace() const { return !traceOut.empty(); }
    bool enabled() const { return wantStats() || wantTrace(); }

    /** Add the observability and logging rows. */
    void
    addFlags(FlagTable &t)
    {
        std::vector<std::pair<std::string, TraceFormat>> formats;
        for (TraceFormat f : {TraceFormat::kChrome, TraceFormat::kKonata,
                              TraceFormat::kText})
            formats.emplace_back(traceFormatName(f), f);
        t.text("--stats-out", "F",
               "write a JSON run manifest (config, phase timings,\n"
               "full stats dump of one instrumented window)",
               &statsOut);
        t.text("--trace-out", "F", "write a pipeline trace of that window",
               &traceOut);
        t.choice("--trace-format", "chrome|konata|text",
                 "trace renderer (default: chrome, Perfetto-loadable)",
                 std::move(formats), &traceFormat);
        addLogFlags(t);
    }
};

/**
 * Checkpoint-corpus knobs shared by the grid-driving bench binaries
 * (fig07_cpi, table02_overheads, grid_server): where the on-disk
 * corpus lives and its LRU size cap.
 */
struct BenchCkpt {
    std::string dir;             ///< --ckpt-dir= (empty: no corpus)
    std::uint64_t maxBytes = 0;  ///< --ckpt-max-bytes= (0: unbounded)

    /** Open the corpus, or nullptr when none was requested. The
     *  returned store must outlive every runGrid call using it. */
    std::unique_ptr<CheckpointStore>
    open() const
    {
        if (dir.empty())
            return nullptr;
        return std::make_unique<CheckpointStore>(dir, maxBytes);
    }

    /** Add the corpus rows. */
    void
    addFlags(FlagTable &t)
    {
        t.text("--ckpt-dir", "DIR",
               "persistent checkpoint corpus (shared across runs)", &dir);
        t.number("--ckpt-max-bytes", "N",
                 "LRU size cap for the corpus (0 = unbounded)", &maxBytes);
    }
};

/**
 * SMT co-residency knobs shared by the grid benches: --smt=N sets the
 * hardware-thread count on every simulated core (--smt=1 is an
 * explicit single-thread run, bit-identical to the default configs),
 * --smt-policy=rr|icount picks the fetch arbitration between the
 * contexts.
 */
struct BenchSmt {
    unsigned threads = 0; ///< 0 = leave the configs untouched
    SmtFetchPolicy policy = SmtFetchPolicy::kRoundRobin;
    bool policySet = false;

    /** Apply the parsed knobs to one grid config (no-op when unset). */
    void
    apply(SimConfig &cfg) const
    {
        if (threads)
            cfg.core.smtThreads = threads;
        if (policySet)
            cfg.core.smtFetchPolicy = policy;
    }

    /** Add the --smt and --smt-policy rows. */
    void
    addFlags(FlagTable &t)
    {
        t.number("--smt", "N",
                 "hardware threads per core (1 = explicit single-thread)",
                 &threads, 1);
        t.choice<SmtFetchPolicy>(
            "--smt-policy", "rr|icount",
            "SMT fetch arbitration: rr (default) or icount",
            {{"rr", SmtFetchPolicy::kRoundRobin},
             {"icount", SmtFetchPolicy::kIcount}},
            [this](SmtFetchPolicy p) {
                policy = p;
                policySet = true;
            });
    }
};

/** One grid column's CPI stack, pooled over workloads. */
struct PooledCpi {
    /** Cause c contributes slots_c / (width x insts) cycles per
     *  instruction, so the entries sum exactly to `cpi`. */
    std::array<double, kNumStallCauses> contrib{};
    double cpi = 0.0; ///< pooled cycles / pooled instructions
};

/** Pool column `col` of a workload-major grid of `ncols` configs
 *  (cell = workload x ncols + col), summing in workload order. */
inline PooledCpi
pooledCpi(const std::vector<RunResult> &grid, std::size_t ncols,
          std::size_t col)
{
    std::array<std::uint64_t, kNumStallCauses> slots{};
    std::uint64_t insts = 0;
    std::uint64_t cycles = 0;
    unsigned width = 0;
    for (std::size_t i = col; i < grid.size(); i += ncols) {
        const WindowStats &w = grid[i].mean;
        for (int c = 0; c < kNumStallCauses; ++c)
            slots[c] += w.slotStack[c];
        insts += w.instructions;
        cycles += w.cycles;
        width = w.slotWidth;
    }
    PooledCpi out;
    const double den =
        static_cast<double>(width) * static_cast<double>(insts);
    for (int c = 0; c < kNumStallCauses; ++c)
        out.contrib[c] = den ? static_cast<double>(slots[c]) / den : 0.0;
    out.cpi = insts ? static_cast<double>(cycles) /
                          static_cast<double>(insts)
                    : 0.0;
    return out;
}

/** Return `measure()`; a window it cannot measure (runWindow's
 *  std::runtime_error, passed up through runGrid) ends the bench with
 *  one error line and exit status 1. */
template <class F>
auto
measuredOrExit(F &&measure) -> decltype(measure())
{
    try {
        return measure();
    } catch (const std::runtime_error &e) {
        NDA_FATAL("%s", e.what());
    }
}

/** `\r`-style progress meter for grid sweeps (stderr; silenced by
 *  --quiet). */
inline void
gridProgress(std::size_t done, std::size_t total)
{
    if (logVerbosity < 1)
        return;
    std::fprintf(stderr, "\r  %zu/%zu windows", done, total);
    if (done == total)
        std::fprintf(stderr, "\n");
}

/** Write `content` to `path`; NDA_WARNs instead of aborting, so a
 *  bad output path never discards the run that produced the data. */
inline bool
writeBenchFile(const std::string &path, const std::string &content)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        NDA_WARN("cannot open '%s' for writing", path.c_str());
        return false;
    }
    const std::size_t n =
        std::fwrite(content.data(), 1, content.size(), f);
    const int closed = std::fclose(f);
    if (n != content.size() || closed != 0) {
        NDA_WARN("short write to '%s'", path.c_str());
        return false;
    }
    NDA_INFORM("wrote %s", path.c_str());
    return true;
}

/**
 * Emit the requested observability artifacts by running one
 * *representative instrumented window*: a core on `cfg`, started
 * after `sp.fastforwardInsts` of fast-forward as runWindow does, with
 * every component bound into a StatsRegistry and (if a trace was
 * requested) the PipeTrace retire hook attached. Bench binaries call
 * this once, after their main measurement, with the profile that best
 * characterizes what they measure, configured as the bench ran it
 * (--mshr, --smt applied): the manifest records `mshr_entries` and
 * `smt_threads` from `cfg`, so its stats are reproducible from its
 * fields. Under any NDA profile the Chrome trace shows the
 * complete->broadcast deferral as `nda_defer` slices.
 *
 * `extra` (optional) runs before the manifest is rendered so the
 * bench can add result fields and bind additional stats (e.g. the
 * fuzzing campaign totals); anything bound there must outlive the
 * call.
 */
inline void
emitBenchObs(BenchObs &obs, const char *bench, const SimConfig &cfg,
             const SampleParams &sp,
             const std::function<void(RunManifest &, StatsRegistry &)>
                 &extra = nullptr)
{
    if (!obs.enabled())
        return;

    const std::unique_ptr<Workload> workload = makeWorkload("mixed");
    const Program prog = workload->build(sp.baseSeed);
    // The window starts where runWindow starts the bench's own: after
    // the fast-forward the manifest records, if there is one.
    SimSnapshot start;
    if (sp.fastforwardInsts > 0) {
        start = buildWarmCheckpoint(prog, cfg.memory, cfg.core.predictor,
                                    sp.fastforwardInsts);
    }
    HotspotProfiler hotspots; // attached below; outlives the core
    const auto core =
        makeCore(prog, cfg, sp.fastforwardInsts > 0 ? &start : nullptr);

    StatsRegistry reg;
    core->registerStats(reg, "core");

    PipeTrace trace;
    if (obs.wantTrace()) {
        // Only the OoO pipeline has a per-instruction retire hook.
        if (auto *ooo = dynamic_cast<OooCore *>(core.get()))
            ooo->setRetireHook(trace.hook());
        else
            NDA_WARN("profile '%s' has no pipeline trace hook; "
                     "'%s' will hold an empty trace",
                     cfg.name.c_str(), obs.traceOut.c_str());
    }

    {
        ScopedTimer timer(obs.timings, "instrumented-window");
        core->run(sp.warmupInsts, ~Cycle{0});
        core->resetCounters();
        trace.clear();
        // Where the measured window's lost slots went, by PC.
        core->attachHotspots(&hotspots);
        core->run(sp.measureInsts, ~Cycle{0});
    }

    if (obs.wantTrace()) {
        const TraceExporter exporter(trace.records());
        writeBenchFile(obs.traceOut, exporter.render(obs.traceFormat));
    }

    if (obs.wantStats()) {
        RunManifest m(bench);
        m.set("profile", cfg.name);
        m.set("workload", workload->name());
        m.set("seed", sp.baseSeed);
        m.set("samples", static_cast<std::uint64_t>(sp.samples));
        m.set("fastforward_insts", sp.fastforwardInsts);
        m.set("warmup_insts", sp.warmupInsts);
        m.set("measure_insts", sp.measureInsts);
        m.set("jobs", static_cast<std::uint64_t>(sp.jobs));
        m.set("mshr_entries",
              static_cast<std::uint64_t>(cfg.memory.mshrEntries));
        m.set("smt_threads",
              static_cast<std::uint64_t>(cfg.core.smtThreads));
        // Latency-distribution summaries of the instrumented window
        // (Fig 9d's dispatch-to-issue plus the two NDA residency
        // histograms) — the full distributions live under "stats".
        const PerfCounters &pcs = core->counters();
        const auto pct = [&m](const char *base, const Histogram &h) {
            const std::string k(base);
            m.set(k + "_p50", h.percentile(0.50));
            m.set(k + "_p95", h.percentile(0.95));
            m.set(k + "_p99", h.percentile(0.99));
        };
        pct("dispatch_to_issue", pcs.dispatchToIssue);
        pct("deferred_delay", pcs.deferredBroadcastDelay);
        pct("unsafe_residency", pcs.unsafeResidency);
        m.setRaw("cpi_hotspots", hotspots.topJson(kHotspotTopN));
        if (obs.wantTrace()) {
            m.set("trace_out", obs.traceOut);
            m.set("trace_format", traceFormatName(obs.traceFormat));
        }
        if (extra)
            extra(m, reg);
        m.setTimings(&obs.timings);
        m.setStats(&reg);
        if (m.writeFile(obs.statsOut))
            NDA_INFORM("wrote %s", obs.statsOut.c_str());
    }
}

} // namespace nda

#endif // NDASIM_BENCH_BENCH_COMMON_HH
