/**
 * @file
 * Traced replay of nda::runGrid for the serial, checkpoint-sharing
 * configuration the benchmark uses (jobs = 1, reuseCheckpoints on,
 * optional chained sampling and checkpoint corpus). It makes the same
 * public calls in the same order as runGrid — Workload::build,
 * buildWarmCheckpoint / extendWarmCheckpoint, CheckpointStore::load /
 * store, makeCore, CoreBase::restoreCheckpoint and CoreBase::run — with
 * a span around each, so it must reproduce runGrid's results exactly.
 */

#ifndef PERFBENCH_REPLAY_GRID_HH
#define PERFBENCH_REPLAY_GRID_HH

#include <string>
#include <vector>

#include "bench.hh"
#include "ckpt/checkpoint_store.hh"
#include "core/snapshot.hh"
#include "harness/profiles.hh"
#include "harness/runner.hh"

namespace perfbench {

/** One shared checkpoint of a replayed grid's fast-forward phase. */
struct ReplayCheckpoint {
    nda::CkptKey key;
    nda::SimSnapshot snap;
    bool fromCorpus = false;  ///< loaded instead of built
};

struct GridReplay {
    std::vector<nda::RunResult> cells;  ///< row-major, like runGrid
    std::vector<ReplayCheckpoint> checkpoints;
    bool ok = true;  ///< false if a window halted (runGrid asserts)
};

/**
 * Replay runGrid(workloads, profiles, p, corpus) under `t`. Simulated
 * counts accumulate into `counts`.
 */
GridReplay replayGrid(const std::vector<const nda::Workload *> &workloads,
                      const std::vector<nda::Profile> &profiles,
                      const nda::SampleParams &p,
                      nda::CheckpointStore *corpus, Tracer &t,
                      Counts &counts);

/** Harness, workloads, core, isa and ckpt-load/store metrics that
 *  any replayed grid yields. */
void gridLayerMetrics(const Tracer &t, const Counts &counts,
                      Metrics &m);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_GRID_HH
