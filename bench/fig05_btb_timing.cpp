/**
 * @file
 * Regenerates paper Figure 5: the cost of a BTB misprediction. A
 * single indirect call site is trained to one target, then redirected
 * to another; the cycle difference between the correctly-predicted
 * and mispredicted executions is the BTB covert channel's signal
 * (paper: ~16 cycles on its Haswell-like configuration).
 */

#include <cstdio>

#include "bench_common.hh"
#include "core/ooo_core.hh"
#include "harness/table_printer.hh"
#include "isa/program.hh"

using namespace nda;

namespace {

constexpr Addr kResults = 0x100000;
constexpr int kRounds = 12; // rounds 0..10 trained, round 11 redirected

Program
buildTimingProbe()
{
    ProgramBuilder b("btb-timing");
    b.zeroSegment(kResults, kRounds * 8);

    auto main_l = b.futureLabel();
    b.jmp(main_l);
    const Addr fn_a = b.here();
    b.ret(28);
    const Addr fn_b = b.here();
    b.ret(28);

    // measure(target in r1): time one indirect call from a fixed site.
    auto measure = b.label();
    b.fence();
    b.rdtsc(10);
    b.callr(28, 1);                 // the single measured call site
    b.rdtsc(11);
    b.sub(12, 11, 10);
    b.ret(30);

    b.bind(main_l);
    b.movi(2, static_cast<std::int64_t>(fn_a));
    b.movi(3, static_cast<std::int64_t>(fn_b));
    b.movi(18, 0);
    b.movi(19, kRounds);
    auto loop = b.label();
    // target = fn_a for all rounds except the last, which redirects.
    b.movi(5, kRounds - 1);
    b.cmpeq(6, 18, 5);
    b.sub(7, 3, 2);
    b.mul(7, 6, 7);
    b.add(1, 2, 7);                 // r1 = fn_a or fn_b
    b.call(30, measure);
    b.movi(8, kResults);
    b.shli(9, 18, 3);
    b.add(8, 8, 9);
    b.store(8, 0, 12, 8);
    b.addi(18, 18, 1);
    b.blt(18, 19, loop);
    b.halt();
    return b.build();
}

} // namespace

int
main(int argc, char **argv)
{
    SampleParams sp;
    BenchObs obs;
    FlagTable flags(argv[0], "Figure 5: BTB misprediction recovery "
                             "overhead.");
    addSampleFlags(flags, sp);
    obs.addFlags(flags);
    flags.parseOrExit(argc, argv);
    sp.validate();

    printBanner("Figure 5: BTB misprediction recovery overhead");
    std::printf("Paper reference: ~16 cycles for the BTB miss to "
                "resolve,\nwrong-path to squash, and fetch to resume "
                "at the correct target.\n\n");

    ScopedTimer probe_timer(obs.timings, "probe");
    OooCore core(buildTimingProbe(), makeProfile(Profile::kOoo));
    core.run(~std::uint64_t{0}, 1'000'000);
    probe_timer.stop();
    if (!core.halted()) {
        NDA_WARN("probe did not finish");
        return 1;
    }

    TablePrinter t({"round", "prediction", "cycles"});
    double predicted = 0;
    double mispredicted = 0;
    for (int round = 0; round < kRounds; ++round) {
        const auto cycles = core.mem().read(
            kResults + static_cast<Addr>(round) * 8, 8);
        const bool redirected = round == kRounds - 1;
        if (round >= kRounds / 2 && !redirected)
            predicted = static_cast<double>(cycles);
        if (redirected)
            mispredicted = static_cast<double>(cycles);
        t.addRow({std::to_string(round),
                  redirected ? "mispredicted (redirected target)"
                             : "correct (trained)",
                  std::to_string(cycles)});
    }
    t.print();

    const double penalty = mispredicted - predicted;
    std::printf("\nSummary (paper -> measured):\n");
    std::printf("  BTB mispredict penalty ~16 cycles -> %.0f cycles\n",
                penalty);

    emitBenchObs(obs, "fig05_btb_timing", makeProfile(Profile::kOoo), sp,
                 [&](RunManifest &m, StatsRegistry &) {
                     m.set("mispredict_penalty_cycles", penalty);
                 });
    return penalty >= 5 ? 0 : 1;
}
