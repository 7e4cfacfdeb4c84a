/**
 * @file
 * Reference implementation runGrid is tested against: every window
 * rebuilds its own fast-forward checkpoint (runWindow without one),
 * serially, and each cell is reduced with aggregateWindows. runGrid
 * shares one checkpoint per (workload, sample) across profiles and
 * runs windows on a pool; its results must match this loop bit for
 * bit.
 */

#ifndef NDASIM_TESTS_GRID_REFERENCE_HH
#define NDASIM_TESTS_GRID_REFERENCE_HH

#include <memory>
#include <vector>

#include "harness/runner.hh"

namespace nda {

/** Per-window-rebuild grid in runGrid's row-major cell order;
 *  `stats`, if set, accumulates every window's work. */
inline std::vector<RunResult>
perWindowGrid(const std::vector<std::unique_ptr<Workload>> &workloads,
              const std::vector<SimConfig> &configs,
              const SampleParams &p, GridStats *stats = nullptr)
{
    std::vector<RunResult> results;
    for (const auto &w : workloads) {
        for (const SimConfig &cfg : configs) {
            std::vector<WindowStats> windows;
            for (unsigned s = 0; s < p.samples; ++s) {
                // Chained sampling measures offset (s+1) x stride of
                // one run; classic sampling one offset of S seeds.
                SampleParams q = p;
                if (p.chainSamples)
                    q.fastforwardInsts = p.fastforwardInsts * (s + 1);
                const std::uint64_t seed =
                    p.chainSamples ? p.baseSeed : p.baseSeed + s;
                WindowWork work;
                windows.push_back(
                    runWindow(*w, cfg, seed, q, nullptr, &work));
                if (stats)
                    stats->accumulate(work);
            }
            results.push_back(aggregateWindows(windows));
        }
    }
    return results;
}

} // namespace nda

#endif // NDASIM_TESTS_GRID_REFERENCE_HH
