#include "harness/runner.hh"

#include <algorithm>
#include <mutex>
#include <optional>

#include "common/log.hh"
#include "common/stats_util.hh"
#include "common/thread_pool.hh"
#include "ckpt/checkpoint_store.hh"
#include "core/core_factory.hh"
#include "core/snapshot.hh"
#include "isa/interpreter.hh"
#include "obs/cpi_stack.hh"
#include "obs/stats_registry.hh"

namespace nda {

std::string
SampleParams::problem() const
{
    if (samples == 0)
        return "samples is 0 — at least one sample window is required "
               "to measure anything";
    if (measureInsts == 0)
        return "measureInsts is 0 — an empty measured window would "
               "report CPI over zero instructions";
    if (chainSamples && fastforwardInsts == 0)
        return "chainSamples needs fastforwardInsts > 0 — chained "
               "sampling places windows at multiples of the "
               "fast-forward stride";
    return {};
}

void
SampleParams::validate() const
{
    if (const std::string why = problem(); !why.empty())
        NDA_FATAL("SampleParams::%s", why.c_str());
}

void
GridStats::accumulate(const WindowWork &w)
{
    ffInsts += w.ffInsts;
    ffRuns += w.ffRuns;
    checkpointRestores += w.restores;
    detailedWarmupInsts += w.warmupInsts;
    measuredInsts += w.measuredInsts;
    warmITouches += w.warmITouches;
    warmDTouches += w.warmDTouches;
    warmBpTrains += w.warmBpTrains;
    ++windows;
}

double
GridStats::ffSeconds() const
{
    for (const auto &phase : timings.phases()) {
        if (phase.first == "fast_forward")
            return phase.second;
    }
    return 0.0;
}

double
GridStats::ffMips() const
{
    const double secs = ffSeconds();
    return secs > 0.0 ? static_cast<double>(ffInsts) / secs / 1e6 : 0.0;
}

void
GridStats::registerStats(StatsRegistry &reg,
                         const std::string &prefix) const
{
    const StatsRegistry::Group g = reg.group(prefix);
    g.counter("ff_insts", &ffInsts,
              "functional fast-forward instructions executed");
    g.counter("ff_runs", &ffRuns,
              "fast-forwards executed (W*S shared, plus one per "
              "window whose geometry differs)");
    g.counter("checkpoint_restores", &checkpointRestores,
              "warming checkpoints restored into cores");
    g.counter("detailed_warmup_insts", &detailedWarmupInsts,
              "detailed-model warm-up instructions executed");
    g.counter("measured_insts", &measuredInsts,
              "detailed-model measured instructions executed");
    g.counter("windows", &windows, "measured sample windows run");
    g.counter("warm_i_touches", &warmITouches,
              "functional-warming i-cache accesses (fetch-line "
              "crossings) during fast-forward");
    g.counter("warm_d_touches", &warmDTouches,
              "functional-warming d-cache accesses (loads, stores, "
              "prefetches) during fast-forward");
    g.counter("warm_bp_trains", &warmBpTrains,
              "functional-warming branch trainings during "
              "fast-forward");
    g.counter("ckpt_hits", &ckptHits,
              "checkpoints loaded from the persistent corpus instead "
              "of fast-forwarded");
    g.counter("ckpt_misses", &ckptMisses,
              "corpus lookups that had to build (and publish) the "
              "checkpoint");
    g.counter("ckpt_bytes", &ckptBytes,
              "serialized checkpoint bytes read from plus published "
              "to the corpus");
    g.counter("ckpt_chain_len", &ckptChainLen,
              "longest fast-forward chain (checkpoints per workload) "
              "built or resumed; 0 unless chained sampling");
    g.formula("ff_mips", [this] { return ffMips(); },
              "fast-forward throughput, functional MIPS (ff_insts / "
              "fast_forward phase wall-clock)");
}

WindowStats
runWindow(const Workload &workload, const SimConfig &cfg,
          std::uint64_t seed, const SampleParams &p,
          const SimSnapshot *ckpt, WindowWork *work)
{
    const Program prog = workload.build(seed);
    auto core = makeCore(prog, cfg);
    WindowWork local;

    // CPI-stack attribution, measured window only (reset below). The
    // in-order model retires at most one instruction per cycle.
    std::unique_ptr<CpiStackProfiler> cpi;
    if (p.cpiStack) {
        cpi = std::make_unique<CpiStackProfiler>(
            cfg.inOrder ? 1u : cfg.core.commitWidth);
        core->attachCpiStack(cpi.get());
    }

    if (p.fastforwardInsts > 0) {
        if (ckpt != nullptr && ckpt->structurallyCompatible(cfg)) {
            core->restoreCheckpoint(*ckpt);
        } else {
            // No shared checkpoint (the per-window reference the
            // tests hold runGrid to) or its warming state does not
            // fit this config's geometry: fast-forward for this
            // window alone. Same deterministic procedure either way,
            // so results never depend on which path ran.
            WarmingWork warm;
            const SimSnapshot own = buildWarmCheckpoint(
                prog, cfg.memory, cfg.core.predictor,
                p.fastforwardInsts, nullptr, &warm);
            core->restoreCheckpoint(own);
            local.ffInsts += p.fastforwardInsts;
            ++local.ffRuns;
            local.warmITouches += warm.iTouches;
            local.warmDTouches += warm.dTouches;
            local.warmBpTrains += warm.bpTrains;
        }
        ++local.restores;
        NDA_ASSERT(!core->halted(),
                   "workload '%s' halted during fast-forward — too "
                   "short", workload.name().c_str());
    }

    // Warm pipeline state (and, without a fast-forward, caches and
    // predictors too) under the detailed model.
    core->run(p.warmupInsts, ~Cycle{0});
    NDA_ASSERT(!core->halted(),
               "workload '%s' halted during warm-up — too short",
               workload.name().c_str());
    local.warmupInsts += p.warmupInsts;

    // Measured window.
    core->resetCounters();
    if (cpi)
        cpi->reset();
    core->run(p.measureInsts, ~Cycle{0});
    NDA_ASSERT(!core->halted(),
               "workload '%s' halted during measurement",
               workload.name().c_str());

    const PerfCounters &c = core->counters();
    local.measuredInsts += c.committedInsts;
    if (work)
        *work = local;

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
    if (cpi) {
        w.slotWidth = cpi->width();
        w.slotStack.resize(kNumStallCauses);
        for (int i = 0; i < kNumStallCauses; ++i)
            w.slotStack[i] = cpi->slots(static_cast<StallCause>(i));
        w.hotspots = cpi->hotspots().topN(kHotspotTopN);
    }
    return w;
}

RunResult
aggregateWindows(const std::vector<WindowStats> &windows)
{
    RunResult result;
    WindowStats acc;
    for (const WindowStats &w : windows) {
        result.cpiSamples.push_back(w.cpi);
        acc.cpi += w.cpi;
        acc.mlp += w.mlp;
        acc.ilp += w.ilp;
        acc.dispatchToIssue += w.dispatchToIssue;
        acc.commitFrac += w.commitFrac;
        acc.memStallFrac += w.memStallFrac;
        acc.backendStallFrac += w.backendStallFrac;
        acc.frontendStallFrac += w.frontendStallFrac;
        acc.condMispredictRate += w.condMispredictRate;
        acc.instructions += w.instructions;
        acc.cycles += w.cycles;
        // Slot stacks SUM like instructions/cycles, so the identity
        // sum(stack) == width x cycles survives aggregation exactly.
        if (!w.slotStack.empty()) {
            acc.slotWidth = w.slotWidth;
            if (acc.slotStack.empty())
                acc.slotStack.assign(kNumStallCauses, 0);
            for (int i = 0; i < kNumStallCauses; ++i)
                acc.slotStack[i] += w.slotStack[i];
        }
    }
    if (!acc.slotStack.empty()) {
        // Re-rank the union of the per-window top-N lists (windows in
        // index order, so the merge is schedule-independent).
        HotspotProfiler merged;
        for (const WindowStats &w : windows) {
            for (const HotspotEntry &e : w.hotspots)
                merged.mergeEntry(e);
        }
        acc.hotspots = merged.topN(kHotspotTopN);
    }
    const double n = static_cast<double>(windows.size());
    acc.cpi /= n;
    acc.mlp /= n;
    acc.ilp /= n;
    acc.dispatchToIssue /= n;
    acc.commitFrac /= n;
    acc.memStallFrac /= n;
    acc.backendStallFrac /= n;
    acc.frontendStallFrac /= n;
    acc.condMispredictRate /= n;
    result.mean = acc;
    result.cpiCi95 = confidenceHalfWidth95(result.cpiSamples);
    return result;
}

RunResult
runSampled(const Workload &workload, const SimConfig &cfg,
           const SampleParams &p)
{
    const std::vector<const Workload *> ws{&workload};
    const std::vector<SimConfig> cs{cfg};
    return runGrid(ws, cs, p).front();
}

namespace {

/**
 * Corpus probe used by the shared-checkpoint phase: a hit must be
 * CRC-clean (CheckpointStore::load enforces that) AND structurally
 * compatible with the grid's geometry — the key fingerprint should
 * guarantee compatibility, but a fingerprint collision or a tampered
 * entry must degrade to a rebuild, never into restoring tags of the
 * wrong shape. `bytes` accumulates corpus traffic either way.
 */
bool
corpusLoad(CheckpointStore *corpus, const CkptKey &key,
           const SimConfig &cfg, SimSnapshot &out, std::uint64_t *bytes)
{
    if (!corpus)
        return false;
    std::uint64_t entry_bytes = 0;
    if (!corpus->load(key, out, &entry_bytes))
        return false;
    if (!out.structurallyCompatible(cfg)) {
        NDA_WARN("ckpt: corpus entry '%s' is structurally "
                 "incompatible with the requested geometry — "
                 "rebuilding", key.fileName().c_str());
        return false;
    }
    *bytes += entry_bytes;
    return true;
}

} // namespace

std::vector<RunResult>
runGrid(const std::vector<const Workload *> &workloads,
        const std::vector<SimConfig> &configs, const SampleParams &p,
        const std::function<void(std::size_t, std::size_t)> &progress,
        GridStats *stats, CheckpointStore *corpus)
{
    p.validate();
    const std::size_t cells = workloads.size() * configs.size();
    const std::size_t total = cells * p.samples;
    std::vector<WindowStats> windows(total);
    std::vector<WindowWork> work(total);
    PhaseTimings timings;

    // The effective fast-forward and program seed of one (workload,
    // sample): chained sampling measures offsets s x stride of ONE
    // run (seed = baseSeed); classic sampling measures offset
    // `fastforwardInsts` of S independently-seeded runs.
    const auto window_ff = [&p](std::size_t sample) {
        return p.chainSamples
                   ? p.fastforwardInsts * (sample + 1)
                   : p.fastforwardInsts;
    };
    const auto window_seed = [&p](std::size_t sample) {
        return p.chainSamples
                   ? p.baseSeed
                   : p.baseSeed + static_cast<std::uint64_t>(sample);
    };
    // Worker lanes for a phase of `tasks` tasks: `jobs`, but never
    // more lanes than tasks, so a huge `jobs` spawns no idle threads.
    const auto lanes = [&p](std::size_t tasks) {
        return static_cast<unsigned>(std::max<std::size_t>(
            1, std::min<std::size_t>(p.jobs, tasks)));
    };

    // Phase 1: one warming checkpoint per (workload, sample), built
    // with the first config's geometry and shared across profiles.
    // The functional prefix of a sample does not depend on the
    // profile, so this turns W*S*P fast-forwards into W*S — and with
    // chained sampling into W fast-forward *chains*. A corpus, when
    // given, replaces builds with loads wherever it already holds the
    // (workload, seed, ff, geometry) entry.
    std::vector<SimSnapshot> checkpoints;
    const bool share = p.fastforwardInsts > 0 && !configs.empty() &&
                       !workloads.empty();
    if (share) {
        ScopedTimer t(timings, "fast_forward");
        const std::size_t n_ckpts = workloads.size() * p.samples;
        checkpoints.resize(n_ckpts);
        // Per-task accounting slots: reduced in index order below, so
        // the numbers are identical for any pool schedule.
        std::vector<WarmingWork> warm(n_ckpts);
        std::vector<std::uint64_t> ff_insts(n_ckpts, 0);
        std::vector<std::uint8_t> built(n_ckpts, 0);
        std::vector<std::uint64_t> corpus_bytes(n_ckpts, 0);
        const std::uint64_t geom_fp = geometryFingerprint(
            configs[0].memory, configs[0].core.predictor);

        // One loop over fast-forward chains: chained sampling runs W
        // chains of S links, independent sampling W*S chains of one
        // link. Each link is a corpus hit, or else extends the
        // previous link (builds from scratch for the first) and
        // publishes the result.
        const std::size_t links = p.chainSamples ? p.samples : 1;
        const std::size_t n_chains = n_ckpts / links;
        ThreadPool ff_pool(lanes(n_chains));
        ff_pool.parallelFor(n_chains, [&](std::size_t chain) {
            std::optional<Program> prog;
            const SimSnapshot *prev = nullptr;
            for (std::size_t link = 0; link < links; ++link) {
                const std::size_t task = chain * links + link;
                const std::size_t w = task / p.samples;
                const std::size_t sample = task % p.samples;
                const std::uint64_t target = window_ff(sample);
                const CkptKey key{workloads[w]->name(),
                                  window_seed(sample), target, geom_fp};
                if (!corpusLoad(corpus, key, configs[0],
                                checkpoints[task], &corpus_bytes[task])) {
                    if (!prog)
                        prog = workloads[w]->build(window_seed(sample));
                    checkpoints[task] =
                        prev ? extendWarmCheckpoint(*prog, *prev, target,
                                                    nullptr, &warm[task])
                             : buildWarmCheckpoint(
                                   *prog, configs[0].memory,
                                   configs[0].core.predictor, target,
                                   nullptr, &warm[task]);
                    ff_insts[task] =
                        target - (prev ? prev->arch.instCount : 0);
                    built[task] = 1;
                    if (corpus)
                        corpus_bytes[task] +=
                            corpus->store(key, checkpoints[task]);
                }
                prev = &checkpoints[task];
            }
        });
        if (stats) {
            for (std::size_t task = 0; task < n_ckpts; ++task) {
                stats->ffRuns += built[task];
                stats->ffInsts += ff_insts[task];
                stats->warmITouches += warm[task].iTouches;
                stats->warmDTouches += warm[task].dTouches;
                stats->warmBpTrains += warm[task].bpTrains;
                if (corpus) {
                    stats->ckptHits += built[task] ? 0 : 1;
                    stats->ckptMisses += built[task] ? 1 : 0;
                    stats->ckptBytes += corpus_bytes[task];
                }
            }
            if (p.chainSamples)
                stats->ckptChainLen =
                    std::max<std::uint64_t>(stats->ckptChainLen,
                                            p.samples);
        }
    }

    // Phase 2: every (cell, sample) detailed window, in parallel.
    std::mutex progress_mutex;
    std::size_t done = 0;
    {
        ScopedTimer t(timings, "detailed");
        ThreadPool pool(lanes(total));
        pool.parallelFor(total, [&](std::size_t task) {
            const std::size_t cell = task / p.samples;
            const std::size_t sample = task % p.samples;
            const std::size_t w = cell / configs.size();
            const std::size_t c = cell % configs.size();
            const SimSnapshot *ckpt =
                share ? &checkpoints[w * p.samples + sample] : nullptr;
            // The fallback path inside runWindow (no shared
            // checkpoint, or incompatible geometry) must place this
            // window at its own offset, so hand it the per-sample
            // fast-forward.
            SampleParams q = p;
            q.fastforwardInsts = window_ff(sample);
            windows[task] = runWindow(*workloads[w], configs[c],
                                      window_seed(sample), q, ckpt,
                                      &work[task]);
            if (progress) {
                std::lock_guard<std::mutex> lock(progress_mutex);
                progress(++done, total);
            }
        });
    }

    // Phase 3: reduce in index order (scheduling-independent).
    std::vector<RunResult> results;
    results.reserve(cells);
    std::vector<WindowStats> cell_windows(p.samples);
    for (std::size_t cell = 0; cell < cells; ++cell) {
        for (unsigned s = 0; s < p.samples; ++s)
            cell_windows[s] = windows[cell * p.samples + s];
        results.push_back(aggregateWindows(cell_windows));
    }
    if (stats) {
        for (const WindowWork &w : work)
            stats->accumulate(w);
        for (const auto &phase : timings.phases())
            stats->timings.record(phase.first, phase.second);
    }
    return results;
}

std::vector<RunResult>
runGrid(const std::vector<std::unique_ptr<Workload>> &workloads,
        const std::vector<SimConfig> &configs, const SampleParams &p,
        const std::function<void(std::size_t, std::size_t)> &progress,
        GridStats *stats, CheckpointStore *corpus)
{
    std::vector<const Workload *> ptrs;
    ptrs.reserve(workloads.size());
    for (const auto &w : workloads)
        ptrs.push_back(w.get());
    return runGrid(ptrs, configs, p, progress, stats, corpus);
}

} // namespace nda
