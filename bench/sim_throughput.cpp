/**
 * @file
 * Simulator-throughput microbenchmark: reports KIPS (simulated
 * kilo-instructions per host-second) per machine profile, MIPS for
 * the predecoded architectural interpreter (the fast-forward engine),
 * plus the aggregate harness throughput with `--jobs` concurrent
 * windows, and writes the numbers to a JSON file
 * (BENCH_throughput.json by default).
 *
 * Per-profile numbers are measured serially (one window at a time) so
 * they isolate single-core simulation speed; the harness number runs
 * the same windows through runGrid() on the pool.
 *
 * `--engine=interp` measures only the interpreter (the CI perf-smoke
 * path), and `--min-interp-mips=N` turns the bare-interpreter number
 * into a pass/fail floor.
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "branch/predictor_unit.hh"
#include "harness/csv.hh"
#include "harness/table_printer.hh"
#include "isa/interpreter.hh"
#include "mem/hierarchy.hh"
#include "obs/stats_schema.hh"

using namespace nda;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct ProfileKips {
    Profile profile;
    std::uint64_t instructions = 0;
    double seconds = 0.0;
    double kips() const { return instructions / seconds / 1000.0; }
};

/** One interpreter configuration's aggregate throughput. */
struct InterpMips {
    const char *mode = "";
    std::uint64_t instructions = 0;
    double seconds = 0.0;
    WarmingWork warm;
    double mips() const { return instructions / seconds / 1e6; }
};

/**
 * Run every workload for `insts_each` functional instructions on a
 * fresh interpreter and report aggregate host throughput.
 * `warm` attaches a default-geometry hierarchy + predictor (the grid
 * fast-forward configuration).
 */
InterpMips
measureInterp(const std::vector<std::unique_ptr<Workload>> &workloads,
              std::uint64_t seed, std::uint64_t insts_each, bool warm)
{
    InterpMips r;
    r.mode = warm ? "interp+warm" : "interp";
    const auto t0 = Clock::now();
    for (const auto &w : workloads) {
        const Program prog = w->build(seed);
        Interpreter interp(prog);
        MemHierarchy hier{HierarchyParams{}};
        PredictorUnit bp{PredictorParams{}};
        if (warm)
            interp.attachWarming(hier, bp);
        r.instructions += interp.run(insts_each);
        r.warm += interp.warmingWork();
    }
    r.seconds = secondsSince(t0);
    return r;
}

} // namespace

int
main(int argc, char **argv)
{
    SampleParams sp;
    BenchObs obs;
    bool quick = false;
    std::string json_path = "BENCH_throughput.json";
    bool run_cores = true;
    unsigned min_interp_mips = 0;
    bool stats_schema = false;
    FlagTable flags(argv[0], "Simulator throughput: KIPS per profile, "
                             "interpreter MIPS\nand harness "
                             "throughput.");
    addSampleFlags(flags, sp, &quick);
    flags.text("--json", "F",
               "where to write the results\n"
               "(default: BENCH_throughput.json)",
               &json_path);
    flags.choice<bool>("--engine", "all|interp",
                       "measure every engine (default) or only the "
                       "interpreter",
                       {{"all", true}, {"interp", false}}, &run_cores);
    flags.number("--min-interp-mips", "N",
                 "exit 1 if the bare interpreter runs below N MIPS",
                 &min_interp_mips);
    flags.flag("--stats-schema",
               "print the canonical stat-name schema and exit",
               &stats_schema);
    obs.addFlags(flags);
    flags.parseOrExit(argc, argv);
    sp.validate();
    if (stats_schema) {
        // CI diffs this against tests/golden/stats_schema.txt.
        for (const std::string &name : canonicalStatsSchema())
            std::printf("%s\n", name.c_str());
        return 0;
    }
    // One window per (workload, profile): this measures host-side
    // simulation speed, not simulated statistics, so samples add
    // nothing but wall-clock.
    sp.samples = 1;

    printBanner("Simulator throughput (KIPS = simulated kilo-insts "
                "per host-second)");

    // A branch-heavy, a memory-bound, and an ILP-rich kernel: the mix
    // exercises every pipeline structure without running the full
    // 16-kernel suite.
    const std::vector<std::string> names{"compute", "branchy",
                                         "ptrchase", "mixed"};
    std::vector<std::unique_ptr<Workload>> workloads;
    for (const std::string &n : names)
        workloads.push_back(makeWorkload(n));

    // Interpreter throughput: bare (checkpoint placement) and with
    // functional warming attached (the grid fast-forward engine).
    const std::uint64_t interp_each =
        quick ? 1'000'000ull : 4'000'000ull;
    ScopedTimer interp_timer(obs.timings, "interpreter");
    const InterpMips interp_bare =
        measureInterp(workloads, sp.baseSeed, interp_each, false);
    const InterpMips interp_warm =
        measureInterp(workloads, sp.baseSeed, interp_each / 4, true);
    interp_timer.stop();
    {
        TablePrinter itable({"engine", "sim insts", "host sec", "MIPS"});
        for (const InterpMips *r : {&interp_bare, &interp_warm}) {
            itable.addRow({r->mode, std::to_string(r->instructions),
                           TablePrinter::fmt(r->seconds, 3),
                           TablePrinter::fmt(r->mips(), 1)});
        }
        itable.print();
    }

    std::vector<ProfileKips> results;
    double grid_seconds = 0.0;
    std::uint64_t grid_insts = 0;
    double grid_kips = 0.0;
    std::vector<SimConfig> configs;
    GridStats grid_stats;

    if (run_cores) {
        const auto profiles = allProfiles();
        TablePrinter table({"profile", "sim insts", "host sec", "KIPS"});
        ScopedTimer serial_timer(obs.timings, "per-profile-serial");
        for (Profile p : profiles) {
            ProfileKips r{p};
            const SimConfig cfg = makeProfile(p);
            const auto t0 = Clock::now();
            for (const auto &w : workloads) {
                const WindowStats s = measuredOrExit(
                    [&] { return runWindow(*w, cfg, sp.baseSeed, sp); });
                // Warm-up instructions are simulated work too.
                r.instructions += s.instructions + sp.warmupInsts;
            }
            r.seconds = secondsSince(t0);
            results.push_back(r);
            table.addRow({profileName(p),
                          std::to_string(r.instructions),
                          TablePrinter::fmt(r.seconds, 2),
                          TablePrinter::fmt(r.kips(), 1)});
        }
        serial_timer.stop();
        table.print();

        // Aggregate harness throughput: the same grid through the pool.
        for (Profile p : profiles)
            configs.push_back(makeProfile(p));
        const auto t0 = Clock::now();
        ScopedTimer grid_timer(obs.timings, "harness-grid");
        const std::vector<RunResult> grid = measuredOrExit([&] {
            return runGrid(workloads, configs, sp, nullptr, &grid_stats);
        });
        grid_timer.stop();
        grid_seconds = secondsSince(t0);
        for (const RunResult &r : grid)
            grid_insts += r.mean.instructions +
                          sp.warmupInsts * sp.samples;
        grid_kips = grid_insts / grid_seconds / 1000.0;
        std::printf("\nHarness aggregate (--jobs=%u): %llu insts in "
                    "%.2fs = %.1f KIPS\n",
                    sp.jobs,
                    static_cast<unsigned long long>(grid_insts),
                    grid_seconds, grid_kips);
    }

    std::FILE *json = std::fopen(json_path.c_str(), "w");
    if (!json) {
        NDA_WARN("cannot write %s", json_path.c_str());
        return 1;
    }
    std::fprintf(json,
                 "{\n"
                 "  \"bench\": \"sim_throughput\",\n"
                 "  \"engine\": \"%s\",\n"
                 "  \"measure_insts\": %llu,\n"
                 "  \"warmup_insts\": %llu,\n"
                 "  \"jobs\": %u,\n",
                 run_cores ? "all" : "interp",
                 static_cast<unsigned long long>(sp.measureInsts),
                 static_cast<unsigned long long>(sp.warmupInsts),
                 sp.jobs);
    std::fprintf(json, "  \"interpreter\": {\n");
    const InterpMips *interp_rows[] = {&interp_bare, &interp_warm};
    const char *interp_keys[] = {"bare", "warmed"};
    for (int i = 0; i < 2; ++i) {
        const InterpMips &r = *interp_rows[i];
        std::fprintf(json,
                     "%s    \"%s\": {\"instructions\": %llu, "
                     "\"seconds\": %.4f, \"mips\": %.1f}",
                     i ? ",\n" : "", interp_keys[i],
                     static_cast<unsigned long long>(r.instructions),
                     r.seconds, r.mips());
    }
    for (const ProfileKips &r : results) {
        if (r.profile == Profile::kInOrder) {
            std::fprintf(json, ",\n    \"x_inorder\": %.1f",
                         interp_bare.mips() * 1000.0 / r.kips());
            break;
        }
    }
    std::fprintf(json, "\n  }%s\n", run_cores ? "," : "");
    if (run_cores) {
        std::fprintf(json, "  \"profiles\": [\n");
        for (std::size_t i = 0; i < results.size(); ++i) {
            const ProfileKips &r = results[i];
            std::fprintf(
                json,
                "    {\"name\": \"%s\", \"instructions\": %llu, "
                "\"seconds\": %.4f, \"kips\": %.1f}%s\n",
                profileName(r.profile),
                static_cast<unsigned long long>(r.instructions),
                r.seconds, r.kips(),
                i + 1 < results.size() ? "," : "");
        }
        std::fprintf(json,
                     "  ],\n"
                     "  \"harness\": {\"jobs\": %u, \"instructions\": "
                     "%llu, \"seconds\": %.4f, \"kips\": %.1f}\n",
                     sp.jobs,
                     static_cast<unsigned long long>(grid_insts),
                     grid_seconds, grid_kips);
    }
    std::fprintf(json, "}\n");
    std::fclose(json);
    std::printf("wrote %s\n", json_path.c_str());

    emitBenchObs(obs, "sim_throughput", makeProfile(Profile::kStrict), sp,
                 [&](RunManifest &m, StatsRegistry &reg) {
                     m.set("interp_bare_mips", interp_bare.mips());
                     m.set("interp_warmed_mips", interp_warm.mips());
                     m.set("interp_warm_i_touches",
                           interp_warm.warm.iTouches);
                     m.set("interp_warm_d_touches",
                           interp_warm.warm.dTouches);
                     m.set("interp_warm_bp_trains",
                           interp_warm.warm.bpTrains);
                     if (run_cores) {
                         m.set("harness_kips", grid_kips);
                         m.set("harness_insts", grid_insts);
                         grid_stats.registerStats(reg, "harness");
                         for (const ProfileKips &r : results)
                             m.set(std::string("kips_") +
                                       profileName(r.profile),
                                   r.kips());
                     }
                 });

    if (interp_bare.mips() < min_interp_mips) {
        std::fprintf(stderr,
                     "FAIL: interpreter throughput %.1f MIPS is below "
                     "the floor of %u MIPS\n",
                     interp_bare.mips(), min_interp_mips);
        return 1;
    }
    return 0;
}
