#include "harness/runner.hh"

#include <algorithm>
#include <mutex>
#include <optional>
#include <stdexcept>

#include "common/log.hh"
#include "common/stats_util.hh"
#include "common/thread_pool.hh"
#include "ckpt/checkpoint_store.hh"
#include "core/core_factory.hh"
#include "core/snapshot.hh"
#include "isa/interpreter.hh"
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
    warm += w.warm;
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
    g.counter("warm_i_touches", &warm.iTouches,
              "functional-warming i-cache accesses (fetch-line "
              "crossings) during fast-forward");
    g.counter("warm_d_touches", &warm.dTouches,
              "functional-warming d-cache accesses (loads, stores, "
              "prefetches) during fast-forward");
    g.counter("warm_bp_trains", &warm.bpTrains,
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
    Program prog = workload.build(seed);
    WindowWork local;

    // The core starts in the shared checkpoint, or in this window's
    // own fast-forward when there is none (the per-window reference
    // the tests hold runGrid to) or its warming state does not fit
    // this config's geometry: the same deterministic procedure either
    // way. Without a fast-forward it starts at the cold start. A
    // fast-forward that halted ends the window before it starts: the
    // core is halted too, except that SMT contexts beyond thread 0
    // are not in a single-thread snapshot.
    HotspotProfiler hotspots; // attached below; outlives the core
    std::unique_ptr<CoreBase> core;
    bool ff_halted = false;
    if (p.fastforwardInsts == 0) {
        core = makeCore(std::move(prog), cfg);
    } else {
        SimSnapshot own;
        if (ckpt == nullptr || !ckpt->structurallyCompatible(cfg)) {
            own = buildWarmCheckpoint(prog, cfg.memory,
                                      cfg.core.predictor,
                                      p.fastforwardInsts, nullptr,
                                      &local.warm);
            ckpt = &own;
            local.ffInsts += p.fastforwardInsts;
            ++local.ffRuns;
        }
        core = makeCore(std::move(prog), cfg, ckpt);
        ff_halted = ckpt->arch.halted;
        ++local.restores;
    }

    // Warm pipeline state (and, without a fast-forward, caches and
    // predictors too) under the detailed model, then measure, with
    // the hotspot table attached to the measured part only.
    StopReason why =
        ff_halted ? StopReason::kHalted : core->run(p.warmupInsts);
    local.warmupInsts += p.warmupInsts;
    core->resetCounters();
    if (p.hotspots)
        core->attachHotspots(&hotspots);
    if (why == StopReason::kTarget)
        why = core->run(p.measureInsts);
    // A window that ended any other way measured nothing (run() says
    // halted, not target, when the last instruction was the halt).
    if (why != StopReason::kTarget) {
        throw std::runtime_error(
            "workload '" + workload.name() + "' (seed " +
            std::to_string(seed) + ", profile " + cfg.name + "): " +
            stopReasonName(why) + " after " +
            std::to_string(core->committedInsts()) +
            " instructions, before its measured window ended");
    }

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
    w.slotWidth = core->slotWidth();
    w.slotStack = c.slots;
    w.hotspots = hotspots.topN(kHotspotTopN);
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
        acc.slotWidth = w.slotWidth;
        for (int i = 0; i < kNumStallCauses; ++i)
            acc.slotStack[i] += w.slotStack[i];
    }
    // Re-rank the union of the per-window top-N lists (windows in
    // index order, so the merge is schedule-independent).
    HotspotProfiler merged;
    for (const WindowStats &w : windows) {
        for (const HotspotEntry &e : w.hotspots)
            merged.mergeEntry(e);
    }
    acc.hotspots = merged.topN(kHotspotTopN);
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
        std::vector<std::uint8_t> built(n_ckpts, 1);
        std::vector<std::uint64_t> corpus_bytes(n_ckpts, 0);
        const std::uint64_t geom_fp = geometryFingerprint(
            configs[0].memory, configs[0].core.predictor);

        const auto key_of = [&](std::size_t task) {
            const std::size_t sample = task % p.samples;
            return CkptKey{workloads[task / p.samples]->name(),
                           window_seed(sample), window_ff(sample),
                           geom_fp};
        };

        // Probe the corpus before the pool runs, and publish the misses
        // serially in task order: the LRU use stamps (and the
        // evictions they pick) then ignore the pool's schedule. A
        // hit must be CRC-clean (CheckpointStore::load) and also
        // structurally compatible: the key's fingerprint should
        // guarantee that, but a collision or a tampered entry must
        // degrade to a rebuild, never restore tags of the wrong shape.
        for (std::size_t task = 0; corpus && task < n_ckpts; ++task) {
            const CkptKey key = key_of(task);
            std::uint64_t bytes = 0;
            if (!corpus->load(key, checkpoints[task], &bytes))
                continue;
            if (!checkpoints[task].structurallyCompatible(configs[0])) {
                NDA_WARN("ckpt: corpus entry '%s' is structurally "
                         "incompatible with the requested geometry — "
                         "rebuilding", key.fileName().c_str());
                continue;
            }
            built[task] = 0;
            corpus_bytes[task] = bytes;
        }

        // One loop over fast-forward chains: chained sampling runs W
        // chains of S links, independent sampling W*S chains of one
        // link. Each link the corpus did not hold extends the previous
        // link (builds from scratch for the first). The chain that
        // completes the oldest unpublished task publishes it and every
        // completed task after it: a serial grid serializes each chain
        // right after building it, not once every chain is in memory.
        const std::size_t links = p.chainSamples ? p.samples : 1;
        const std::size_t n_chains = n_ckpts / links;
        std::mutex publish_mutex;
        std::vector<std::uint8_t> complete(n_ckpts, 0);
        std::size_t next_publish = 0;
        parallelFor(p.jobs, n_chains, [&](std::size_t chain) {
            std::optional<Program> prog;
            const SimSnapshot *prev = nullptr;
            for (std::size_t link = 0; link < links; ++link) {
                const std::size_t task = chain * links + link;
                if (built[task]) {
                    const std::size_t sample = task % p.samples;
                    const std::uint64_t target = window_ff(sample);
                    if (!prog)
                        prog = workloads[task / p.samples]->build(
                            window_seed(sample));
                    checkpoints[task] =
                        prev ? extendWarmCheckpoint(*prog, *prev, target,
                                                    nullptr, &warm[task])
                             : buildWarmCheckpoint(
                                   *prog, configs[0].memory,
                                   configs[0].core.predictor, target,
                                   nullptr, &warm[task]);
                    ff_insts[task] =
                        target - (prev ? prev->arch.instCount : 0);
                }
                prev = &checkpoints[task];
            }
            if (!corpus)
                return;
            std::lock_guard<std::mutex> lock(publish_mutex);
            std::fill_n(complete.begin() + chain * links, links, 1);
            for (; next_publish < n_ckpts && complete[next_publish];
                 ++next_publish) {
                const std::size_t task = next_publish;
                if (built[task])
                    corpus_bytes[task] +=
                        corpus->store(key_of(task), checkpoints[task]);
            }
        });
        if (stats) {
            for (std::size_t task = 0; task < n_ckpts; ++task) {
                stats->ffRuns += built[task];
                stats->ffInsts += ff_insts[task];
                stats->warm += warm[task];
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
        parallelFor(p.jobs, total, [&](std::size_t task) {
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
