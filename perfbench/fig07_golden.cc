/**
 * @file
 * fig07_golden: regenerate the Fig 7 CI smoke grid — all 16 workloads x
 * 10 profiles, samples=2 warmup=2000 measure=5000 fastforward=50000 —
 * with one nda::runGrid call per op, and check the fig07-style CSV.
 * At base seed 1 every op must be byte-equal to
 * tests/golden/fig07_grid_smoke.csv; at any other seed, to the CSV the
 * set-up grid produced.
 */

#include <fstream>
#include <sstream>

#include "bench.hh"
#include "harness/csv.hh"
#include "replay_grid.hh"

namespace perfbench {

using namespace nda;

namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** Write the CSV bench/fig07_cpi writes with --csv= (CPI and CI
 *  half-width per profile, normalised to the row's OoO cell) to
 *  `path` with nda::CsvWriter, and return the file's bytes. */
std::string
fig07Csv(const std::string &path,
         const std::vector<const Workload *> &workloads,
         const std::vector<Profile> &profiles,
         const std::vector<RunResult> &cells)
{
    {
        CsvWriter csv(path);
        if (!csv.ok()) {
            note("fig07_golden: cannot write '%s'", path.c_str());
            return {};
        }
        std::vector<std::string> header{"workload"};
        for (Profile p : profiles) {
            header.push_back(profileName(p));
            header.push_back(std::string(profileName(p)) + "_ci95");
        }
        csv.row(header);
        for (std::size_t w = 0; w < workloads.size(); ++w) {
            std::vector<std::string> row{workloads[w]->name()};
            double base = 0.0;
            for (std::size_t c = 0; c < profiles.size(); ++c) {
                const RunResult &r = cells[w * profiles.size() + c];
                if (profiles[c] == Profile::kOoo)
                    base = r.mean.cpi;
                row.push_back(CsvWriter::num(r.mean.cpi / base, 4));
                row.push_back(CsvWriter::num(r.cpiCi95 / base, 4));
            }
            csv.row(row);
        }
    }
    return readFile(path);
}

/** First line where `got` and `want` differ, for the failure note. */
std::string
firstDiff(const std::string &got, const std::string &want)
{
    std::istringstream a(got), b(want);
    std::string la, lb;
    for (int line = 1;; ++line) {
        const bool more_a = static_cast<bool>(std::getline(a, la));
        const bool more_b = static_cast<bool>(std::getline(b, lb));
        if (!more_a && !more_b)
            return "no difference";
        if (la != lb || more_a != more_b)
            return "line " + std::to_string(line) + ": got '" + la +
                   "', want '" + lb + "'";
    }
}

class Fig07Golden final : public BenchWorkload
{
  public:
    Fig07Golden(std::uint64_t seed, Paths paths)
        : seed_(seed), paths_(std::move(paths))
    {
    }

    OpResult
    setup() override
    {
        workloads_ = makeAllWorkloads();
        for (const auto &w : workloads_)
            ptrs_.push_back(w.get());
        profiles_ = allProfiles();
        for (Profile p : profiles_)
            configs_.push_back(makeProfile(p));
        params_.samples = 2;
        params_.warmupInsts = 2000;
        params_.measureInsts = 5000;
        params_.fastforwardInsts = 50000;
        params_.baseSeed = seed_;
        params_.jobs = 1;
        csvPath_ = paths_.work + "/fig07_golden.csv";
        if (seed_ == 1) {
            reference_ = readFile(paths_.golden);
            if (reference_.empty())
                note("fig07_golden: cannot read golden CSV '%s'",
                     paths_.golden.c_str());
        }
        GridStats gs;
        std::string csv;
        OpResult r = runOp(gs, csv);
        if (seed_ != 1)
            reference_ = csv;
        r.ok = check(csv, "set-up grid");
        return r;
    }

    OpResult
    op(std::size_t i) override
    {
        opStats_.emplace_back();
        std::string csv;
        OpResult r = runOp(opStats_.back(), csv);
        r.ok = check(csv, "op " + std::to_string(i));
        return r;
    }

    bool
    replay(std::size_t i, Tracer &t, Counts &counts) override
    {
        GridReplay g;
        {
            SpanScope op(t, "op");
            g = replayGrid(ptrs_, profiles_, params_, nullptr, t, counts);
        }
        return g.ok && check(fig07Csv(csvPath_, ptrs_, profiles_, g.cells),
                             "replay of op " + std::to_string(i));
    }

    double
    items(std::size_t) const override
    {
        return static_cast<double>(ptrs_.size() * profiles_.size());
    }

    double
    detailedInsts(std::size_t i) const override
    {
        return static_cast<double>(opStats_[i].detailedWarmupInsts +
                                   opStats_[i].measuredInsts);
    }

    void
    layerMetrics(const Tracer &t, const Counts &counts,
                 Metrics &m) const override
    {
        gridLayerMetrics(t, counts, m);
        // The fast-forward share of the untraced grids, as runGrid's
        // own phase timers saw it.
        double ff = 0.0, all = 0.0;
        for (const GridStats &gs : opStats_) {
            ff += gs.ffSeconds();
            for (const auto &phase : gs.timings.phases())
                all += phase.second;
        }
        m.set("harness.ff_share", ratio(ff, all), "ratio");
    }

  private:
    OpResult
    runOp(GridStats &gs, std::string &csv)
    {
        OpResult r;
        const Stopwatch watch;
        const std::vector<RunResult> cells =
            runGrid(ptrs_, configs_, params_, nullptr, &gs);
        watch.stop(r);
        csv = fig07Csv(csvPath_, ptrs_, profiles_, cells);
        return r;
    }

    bool
    check(const std::string &csv, const std::string &what) const
    {
        if (csv == reference_)
            return true;
        note("fig07_golden: %s CSV differs from the %s (%s)", what.c_str(),
             seed_ == 1 ? "golden" : "set-up grid",
             firstDiff(csv, reference_).c_str());
        return false;
    }

    std::uint64_t seed_;
    Paths paths_;
    std::vector<std::unique_ptr<Workload>> workloads_;
    std::vector<const Workload *> ptrs_;
    std::vector<Profile> profiles_;
    std::vector<SimConfig> configs_;
    SampleParams params_;
    std::string csvPath_;  ///< where each op's CSV is written
    std::string reference_;
    std::vector<GridStats> opStats_;
};

} // namespace

std::unique_ptr<BenchWorkload>
makeFig07Golden(std::uint64_t seed, const Paths &paths)
{
    return std::make_unique<Fig07Golden>(seed, paths);
}

} // namespace perfbench
