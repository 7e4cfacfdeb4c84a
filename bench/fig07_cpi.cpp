/**
 * @file
 * Regenerates paper Figure 7: cycles-per-instruction of all ten
 * machine profiles on every workload, normalized to the insecure OoO
 * baseline, with 95% confidence intervals from SMARTS-style sampled
 * measurement (paper §6.1). Ends with the geomean row and the
 * headline gap-closure claims of the abstract.
 *
 * Every cell also carries its causal CPI stack: each cell's slot
 * decomposition is identity-checked (sum of cause buckets == width x
 * cycles, exactly), an attribution table explains each profile's
 * aggregate CPI term by term, and the per-cell stacks export as a
 * tidy CSV (--stack-csv=) plus, with per-PC hotspot tables attached
 * to the windows, a flamegraph-ready collapsed-stack file
 * (--stack-out=).
 */

#include <cstdio>
#include <map>
#include <memory>

#include "bench_common.hh"
#include "harness/csv.hh"
#include "common/stats_util.hh"
#include "harness/table_printer.hh"
#include "obs/json_writer.hh"

using namespace nda;

int
main(int argc, char **argv)
{
    SampleParams sp;
    BenchObs obs;
    BenchCkpt ckpt;
    BenchSmt smt;
    std::string csv_path;
    std::string stack_csv_path;
    std::string stack_out_path;
    unsigned mshr_entries = 0;
    FlagTable flags(argv[0], "Figure 7: normalized CPI, all profiles x "
                             "all workloads.");
    addSampleFlags(flags, sp);
    flags.text("--csv", "F", "write the normalized CPI table as CSV",
               &csv_path);
    addMshrFlag(flags, &mshr_entries);
    flags.text("--stack-csv", "F", "write per-cell CPI stacks as a tidy CSV",
               &stack_csv_path);
    flags.text("--stack-out", "F",
               "write collapsed-stack hotspots for flamegraphs\n"
               "(attaches a per-PC hotspot table to every window)",
               &stack_out_path);
    smt.addFlags(flags);
    ckpt.addFlags(flags);
    obs.addFlags(flags);
    flags.parseOrExit(argc, argv);
    sp.validate();
    sp.hotspots = !stack_out_path.empty();

    printBanner("Figure 7: normalized CPI, all profiles x all "
                "workloads (95% CI over " +
                std::to_string(sp.samples) + " samples, " +
                std::to_string(sp.jobs) + " jobs)");

    const auto workloads = makeAllWorkloads();
    const auto profiles = allProfiles();

    // The whole figure is one grid of independent windows — run them
    // all concurrently, then format from the reduced cells.
    const auto config_for = [&](Profile p) {
        SimConfig cfg = makeProfile(p);
        cfg.memory.mshrEntries = mshr_entries;
        smt.apply(cfg);
        return cfg;
    };
    std::vector<SimConfig> configs;
    for (Profile p : profiles)
        configs.push_back(config_for(p));
    const std::unique_ptr<CheckpointStore> corpus = ckpt.open();
    GridStats grid_stats;
    ScopedTimer grid_timer(obs.timings, "grid");
    const std::vector<RunResult> grid = measuredOrExit([&] {
        return runGrid(workloads, configs, sp, gridProgress, &grid_stats,
                       corpus.get());
    });
    grid_timer.stop();
    if (corpus) {
        NDA_INFORM("checkpoint corpus '%s': %llu hits, %llu misses, "
                   "%llu entries on disk",
                   corpus->dir().c_str(),
                   static_cast<unsigned long long>(
                       corpus->stats().hits),
                   static_cast<unsigned long long>(
                       corpus->stats().misses),
                   static_cast<unsigned long long>(
                       corpus->entryCount()));
    }

    std::vector<std::string> headers{"workload"};
    for (Profile p : profiles)
        headers.push_back(profileName(p));
    TablePrinter table(headers);

    std::unique_ptr<CsvWriter> csv;
    if (!csv_path.empty()) {
        csv = std::make_unique<CsvWriter>(csv_path);
        std::vector<std::string> hdr{"workload"};
        for (Profile p : profiles) {
            hdr.push_back(profileName(p));
            hdr.push_back(std::string(profileName(p)) + "_ci95");
        }
        csv->row(hdr);
    }
    std::map<Profile, std::vector<double>> norm;
    for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
        const auto &w = workloads[wi];
        std::vector<std::string> row{w->name()};
        std::vector<std::string> csv_row{w->name()};
        double base_cpi = 0.0;
        for (std::size_t pi = 0; pi < profiles.size(); ++pi) {
            const Profile p = profiles[pi];
            const RunResult &r = grid[wi * profiles.size() + pi];
            if (p == Profile::kOoo)
                base_cpi = r.mean.cpi;
            const double rel = r.mean.cpi / base_cpi;
            norm[p].push_back(rel);
            char cell[64];
            std::snprintf(cell, sizeof(cell), "%.2f±%.2f", rel,
                          r.cpiCi95 / base_cpi);
            row.push_back(cell);
            csv_row.push_back(CsvWriter::num(rel, 4));
            csv_row.push_back(CsvWriter::num(r.cpiCi95 / base_cpi, 4));
        }
        table.addRow(row);
        if (csv)
            csv->row(csv_row);
    }

    std::vector<std::string> geo_row{"GEOMEAN"};
    std::map<Profile, double> geo;
    for (Profile p : profiles) {
        geo[p] = geomean(norm[p]);
        geo_row.push_back(TablePrinter::fmt(geo[p], 3));
    }
    table.addRow(geo_row);
    table.print();

    std::printf("\nPaper geomeans (Table 2 overhead column + text):\n"
                "  OoO 1.00, Permissive 1.107, Permissive+BR 1.223,\n"
                "  Strict 1.361, Strict+BR 1.45, Restricted Loads "
                "2.00,\n"
                "  Full Protection 2.25, In-Order ~5.4x,\n"
                "  InvisiSpec-Spectre 1.076, InvisiSpec-Future "
                "1.327.\n");

    // The abstract's headline claims.
    const double in_order = geo[Profile::kInOrder];
    const double perm_br = geo[Profile::kPermissiveBr];
    const double full = geo[Profile::kFullProtection];
    const double gap = in_order - 1.0;
    std::printf("\nHeadline claims (paper -> measured):\n");
    std::printf("  Permissive+BR closes 96%% of the in-order/OoO gap "
                "-> %.0f%%\n",
                100.0 * (in_order - perm_br) / gap);
    std::printf("  Full protection closes 68%% of the gap -> %.0f%%\n",
                100.0 * (in_order - full) / gap);
    std::printf("  Permissive+BR is 4.8x faster than in-order -> "
                "%.1fx\n",
                in_order / perm_br);
    std::printf("  Full protection is 2.4x faster than in-order -> "
                "%.1fx\n",
                in_order / full);

    // ---- CPI-stack attribution -------------------------------------
    // Every cell must close the slot identity exactly — the
    // aggregated mean keeps slotStack and cycles as sums over
    // samples, so any residue is an attribution bug, not rounding.
    for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
        for (std::size_t pi = 0; pi < profiles.size(); ++pi) {
            const RunResult &r = grid[wi * profiles.size() + pi];
            std::uint64_t accounted = 0;
            for (const std::uint64_t s : r.mean.slotStack)
                accounted += s;
            const std::uint64_t total =
                static_cast<std::uint64_t>(r.mean.slotWidth) *
                r.mean.cycles;
            NDA_ASSERT(accounted == total,
                       "CPI-stack identity broken on %s x %s: "
                       "%llu accounted != %llu slots",
                       workloads[wi]->name().c_str(),
                       profileName(profiles[pi]),
                       static_cast<unsigned long long>(accounted),
                       static_cast<unsigned long long>(total));
        }
    }

    // Pooled attribution per profile: contribution of cause c is
    // slots_c / (width x insts), so each column sums exactly to
    // that profile's pooled CPI — the figure's bars, explained.
    std::vector<PooledCpi> pooled;
    for (std::size_t pi = 0; pi < profiles.size(); ++pi)
        pooled.push_back(pooledCpi(grid, profiles.size(), pi));
    std::printf("\nCPI attribution (cycles/inst, workloads "
                "pooled; columns sum to pooled CPI):\n");
    std::vector<std::string> shdr{"cause"};
    for (Profile p : profiles)
        shdr.push_back(profileName(p));
    TablePrinter stack_table(shdr);
    for (int c = 0; c < kNumStallCauses; ++c) {
        bool any = false;
        for (std::size_t pi = 0; pi < profiles.size(); ++pi)
            any = any || pooled[pi].contrib[c] > 0.0;
        if (!any)
            continue;
        std::vector<std::string> row{
            stallCauseName(static_cast<StallCause>(c))};
        for (std::size_t pi = 0; pi < profiles.size(); ++pi)
            row.push_back(TablePrinter::fmt(pooled[pi].contrib[c], 3));
        stack_table.addRow(row);
    }
    std::vector<std::string> cpi_row{"CPI (sum)"};
    for (std::size_t pi = 0; pi < profiles.size(); ++pi)
        cpi_row.push_back(TablePrinter::fmt(pooled[pi].cpi, 3));
    stack_table.addRow(cpi_row);
    stack_table.print();

    // Tidy per-(cell, cause) export for external pivoting; every
    // cause is emitted (zeros included) so a consumer can re-check
    // the slot identity from the file alone.
    if (!stack_csv_path.empty()) {
        CsvWriter scsv(stack_csv_path);
        scsv.row({"workload", "profile", "width", "cycles", "insts",
                  "cause", "slots", "slot_frac", "cpi_contrib"});
        for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
            for (std::size_t pi = 0; pi < profiles.size(); ++pi) {
                const RunResult &r = grid[wi * profiles.size() + pi];
                const double total =
                    static_cast<double>(r.mean.slotWidth) *
                    static_cast<double>(r.mean.cycles);
                const double den =
                    static_cast<double>(r.mean.slotWidth) *
                    static_cast<double>(r.mean.instructions);
                for (int c = 0; c < kNumStallCauses; ++c) {
                    const double s =
                        static_cast<double>(r.mean.slotStack[c]);
                    scsv.row({workloads[wi]->name(),
                              profileName(profiles[pi]),
                              std::to_string(r.mean.slotWidth),
                              std::to_string(r.mean.cycles),
                              std::to_string(r.mean.instructions),
                              stallCauseName(static_cast<StallCause>(c)),
                              std::to_string(r.mean.slotStack[c]),
                              CsvWriter::num(total ? s / total : 0.0, 6),
                              CsvWriter::num(den ? s / den : 0.0, 6)});
                }
            }
        }
        NDA_INFORM("wrote %s", stack_csv_path.c_str());
    }

    // Collapsed-stack hotspots: one frame stack per
    // (workload, profile, pc, cause) — flamegraph.pl/speedscope input.
    if (!stack_out_path.empty()) {
        std::string folded;
        for (std::size_t wi = 0; wi < workloads.size(); ++wi) {
            for (std::size_t pi = 0; pi < profiles.size(); ++pi) {
                const RunResult &r = grid[wi * profiles.size() + pi];
                HotspotProfiler hp;
                for (const HotspotEntry &e : r.mean.hotspots)
                    hp.mergeEntry(e);
                folded += hp.renderCollapsed(workloads[wi]->name() + ";" +
                                             profileName(profiles[pi]));
            }
        }
        writeBenchFile(stack_out_path, folded);
    }

    emitBenchObs(obs, "fig07_cpi", config_for(Profile::kStrict), sp,
                 [&](RunManifest &m, StatsRegistry &reg) {
                     m.set("geomean_strict", geo[Profile::kStrict]);
                     m.set("geomean_in_order", in_order);
                     m.set("geomean_full_protection", full);
                     // Per-cell stacks (compact JSON).
                     JsonWriter jw(false);
                     jw.beginArray();
                     for (std::size_t i = 0; i < grid.size(); ++i) {
                         const WindowStats &w = grid[i].mean;
                         jw.beginObject();
                         jw.key("workload");
                         jw.value(workloads[i / profiles.size()]->name());
                         jw.key("profile");
                         jw.value(profileName(
                             profiles[i % profiles.size()]));
                         jw.key("width");
                         jw.value(w.slotWidth);
                         jw.key("cycles");
                         jw.value(w.cycles);
                         jw.key("insts");
                         jw.value(w.instructions);
                         jw.key("slots");
                         jw.beginObject();
                         for (int c = 0; c < kNumStallCauses; ++c) {
                             if (!w.slotStack[c])
                                 continue;
                             jw.key(stallCauseStatName(
                                 static_cast<StallCause>(c)));
                             jw.value(w.slotStack[c]);
                         }
                         jw.endObject();
                         jw.endObject();
                     }
                     jw.endArray();
                     m.setRaw("grid_cpi_stacks", jw.str());
                     grid_stats.registerStats(reg, "harness");
                 });
    return 0;
}
