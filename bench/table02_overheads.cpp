/**
 * @file
 * Regenerates paper Table 2: the NDA propagation policies (rows 1-6)
 * plus the InvisiSpec comparison rows, with the threat classes each
 * defeats and the measured geomean overhead versus insecure OoO.
 *
 * Each mechanism's CPI delta over the baseline is also decomposed by
 * root cause (pooled over workloads), printed as a table and exported
 * with --csv= — the overhead column, explained term by term with zero
 * residue.
 */

#include <cstdio>
#include <iterator>

#include "bench_common.hh"
#include "common/stats_util.hh"
#include "harness/csv.hh"
#include "harness/table_printer.hh"

using namespace nda;

namespace {

struct RowSpec {
    Profile profile;
    const char *steeringMem; ///< control-steering (memory) column
    const char *steeringGpr; ///< control-steering (GPRs) column
    const char *chosenCode;  ///< chosen-code column
    double paperOverhead;    ///< paper's overhead vs OoO
};

} // namespace

int
main(int argc, char **argv)
{
    SampleParams sp;
    BenchObs obs;
    BenchCkpt ckpt;
    BenchSmt smt;
    std::string csv_path;
    unsigned mshr_entries = 0;
    FlagTable flags(argv[0], "Table 2: NDA propagation policies, the "
                             "attacks they prevent,\nand their "
                             "overhead.");
    addSampleFlags(flags, sp);
    flags.text("--csv", "F",
               "write the overhead table and per-cause CPI deltas\n"
               "as CSV",
               &csv_path);
    addMshrFlag(flags, &mshr_entries);
    smt.addFlags(flags);
    ckpt.addFlags(flags);
    obs.addFlags(flags);
    flags.parseOrExit(argc, argv);
    sp.validate();

    printBanner("Table 2: NDA propagation policies and the attacks "
                "they prevent (" + std::to_string(sp.jobs) + " jobs)");

    // Legend (from the paper): "all" = defeats all covert channels,
    // "no SSB" = all channels but store bypass still leaks, "partial"
    // = all channels except single-micro-op GPR attacks, "d-cache" =
    // cache-channel attacks only.
    const RowSpec rows[] = {
        {Profile::kPermissive, "yes (no SSB)", "-", "-", 0.107},
        {Profile::kPermissiveBr, "yes", "-", "-", 0.223},
        {Profile::kStrict, "yes (no SSB)", "partial", "-", 0.361},
        {Profile::kStrictBr, "yes", "partial", "-", 0.45},
        {Profile::kRestrictedLoads, "yes", "-", "yes", 1.00},
        {Profile::kFullProtection, "yes", "partial", "yes", 1.25},
        {Profile::kInvisiSpecSpectre, "d-cache only", "-", "-", 0.076},
        {Profile::kInvisiSpecFuture, "d-cache only", "-",
         "d-cache only", 0.327},
    };

    // Measure the overheads: one grid over all workloads x (baseline
    // OoO + the eight mechanism rows), every window concurrent.
    const auto workloads = makeAllWorkloads();
    const auto config_for = [&](Profile p) {
        SimConfig cfg = makeProfile(p);
        cfg.memory.mshrEntries = mshr_entries;
        smt.apply(cfg);
        return cfg;
    };
    std::vector<SimConfig> configs{config_for(Profile::kOoo)};
    for (const RowSpec &row : rows)
        configs.push_back(config_for(row.profile));
    const std::unique_ptr<CheckpointStore> corpus = ckpt.open();
    GridStats grid_stats;
    ScopedTimer grid_timer(obs.timings, "grid");
    const std::vector<RunResult> grid = measuredOrExit([&] {
        return runGrid(workloads, configs, sp, gridProgress, &grid_stats,
                       corpus.get());
    });
    grid_timer.stop();

    TablePrinter t({"mechanism", "ctrl-steer (mem)", "ctrl-steer "
                    "(GPRs)", "chosen code", "overhead (paper)",
                    "overhead (measured)"});
    const std::size_t ncfg = configs.size();
    std::vector<double> overheads;
    for (std::size_t r = 0; r < std::size(rows); ++r) {
        const RowSpec &row = rows[r];
        std::vector<double> rel;
        for (std::size_t i = 0; i < workloads.size(); ++i) {
            const double base_cpi = grid[i * ncfg].mean.cpi;
            const double cpi = grid[i * ncfg + r + 1].mean.cpi;
            rel.push_back(cpi / base_cpi);
        }
        const double overhead = geomean(rel) - 1.0;
        overheads.push_back(overhead);
        t.addRow({profileName(row.profile), row.steeringMem,
                  row.steeringGpr, row.chosenCode,
                  TablePrinter::pct(row.paperOverhead),
                  TablePrinter::pct(overhead)});
    }
    t.print();

    // ---- CPI-delta attribution -------------------------------------
    // Pooled per-config decomposition: contribution of cause c is
    // slots_c / (width x insts), so the per-cause deltas of each
    // mechanism vs the baseline sum *exactly* to its pooled CPI delta.
    std::vector<PooledCpi> pooled;
    for (std::size_t ci = 0; ci < ncfg; ++ci)
        pooled.push_back(pooledCpi(grid, ncfg, ci));
    std::printf("\nCPI-delta attribution vs OoO (cycles/inst, "
                "workloads pooled;\ncolumns sum to the pooled CPI "
                "delta):\n");
    std::vector<std::string> dhdr{"cause"};
    for (const RowSpec &row : rows)
        dhdr.push_back(profileName(row.profile));
    TablePrinter dt(dhdr);
    for (int c = 0; c < kNumStallCauses; ++c) {
        bool any = false;
        for (std::size_t r = 0; r < std::size(rows); ++r)
            any = any || pooled[r + 1].contrib[c] != pooled[0].contrib[c];
        if (!any)
            continue;
        std::vector<std::string> drow{
            stallCauseName(static_cast<StallCause>(c))};
        for (std::size_t r = 0; r < std::size(rows); ++r)
            drow.push_back(TablePrinter::fmt(
                pooled[r + 1].contrib[c] - pooled[0].contrib[c], 3));
        dt.addRow(drow);
    }
    std::vector<std::string> dsum{"dCPI (sum)"};
    for (std::size_t r = 0; r < std::size(rows); ++r)
        dsum.push_back(
            TablePrinter::fmt(pooled[r + 1].cpi - pooled[0].cpi, 3));
    dt.addRow(dsum);
    dt.print();

    if (!csv_path.empty()) {
        CsvWriter csv(csv_path);
        std::vector<std::string> hdr{"mechanism", "overhead_paper",
                                     "overhead_measured", "pooled_cpi",
                                     "delta_cpi"};
        for (int c = 0; c < kNumStallCauses; ++c)
            hdr.push_back(std::string("delta_") +
                          stallCauseStatName(static_cast<StallCause>(c)));
        csv.row(hdr);
        for (std::size_t r = 0; r < std::size(rows); ++r) {
            std::vector<std::string> line{
                profileName(rows[r].profile),
                CsvWriter::num(rows[r].paperOverhead, 4),
                CsvWriter::num(overheads[r], 4),
                CsvWriter::num(pooled[r + 1].cpi, 6),
                CsvWriter::num(pooled[r + 1].cpi - pooled[0].cpi, 6)};
            for (int c = 0; c < kNumStallCauses; ++c)
                line.push_back(CsvWriter::num(
                    pooled[r + 1].contrib[c] - pooled[0].contrib[c], 6));
            csv.row(line);
        }
        NDA_INFORM("wrote %s", csv_path.c_str());
    }

    std::printf("\nNotes: overheads are geomean CPI increases vs "
                "insecure OoO over\nthe 16-kernel suite (SPEC 2017 "
                "substitute; see DESIGN.md section 4).\nBypass "
                "Restriction adds little here because split "
                "store-address\nmicro-ops resolve quickly in these "
                "kernels; see EXPERIMENTS.md.\n");

    emitBenchObs(obs, "table02_overheads", config_for(Profile::kStrict), sp,
                 [&](RunManifest &, StatsRegistry &reg) {
                     grid_stats.registerStats(reg, "harness");
                 });
    return 0;
}
