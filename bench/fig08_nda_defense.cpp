/**
 * @file
 * Regenerates paper Figure 8: the Figure 4 experiment repeated with
 * NDA permissive propagation enabled — the cycle dips disappear and
 * the secret byte is indistinguishable from the other 255 candidates,
 * regardless of covert channel.
 *
 * --smt=2 extends the figure with the cross-thread co-residency
 * channels (execution-port contention and MSHR occupancy): NDA
 * propagation defers the secret-dependent wakeups, so the co-resident
 * receiver's contention signal collapses too.
 */

#include <cstdio>

#include "attacks/attacks.hh"
#include "bench_common.hh"
#include "harness/table_printer.hh"

using namespace nda;

int
main(int argc, char **argv)
{
    SampleParams sp;
    BenchObs obs;
    unsigned smt = 0;
    FlagTable flags(argv[0], "Figure 8: Spectre v1 under NDA permissive "
                             "propagation.");
    addSampleFlags(flags, sp);
    flags.number("--smt", "N",
                 "hardware threads per core (>= 2 adds the\n"
                 "co-resident channels)",
                 &smt, 1);
    obs.addFlags(flags);
    flags.parseOrExit(argc, argv);
    sp.validate();

    const bool co_resident = smt >= 2;
    printBanner("Figure 8: Spectre v1 under NDA permissive propagation "
                "(cache and BTB channels)");
    std::printf("Paper reference: the Fig 4 cycle differences are "
                "eliminated;\nthe secret is concealed regardless of "
                "the covert channel.\n\n");

    const SimConfig cfg = makeProfile(Profile::kPermissive);
    const std::uint8_t secret = 42;

    // The end-to-end attack simulations are independent; run them in
    // parallel (each owns its core and memory). --smt=2 adds the two
    // co-resident channels; the attacks themselves request the second
    // hardware context via adjustConfig.
    SpectreV1Cache cache_attack;
    SpectreV1Btb btb_attack;
    SmotherPort port_attack;
    MshrContention mshr_attack;
    const std::size_t n_attacks = co_resident ? 4 : 2;
    std::vector<AttackResult> r(n_attacks);
    ScopedTimer attack_timer(obs.timings, "attacks");
    parallelFor(sp.jobs, n_attacks, [&](std::size_t i) {
        AttackBase *attacks[] = {&cache_attack, &btb_attack,
                                 &port_attack, &mshr_attack};
        r[i] = attacks[i]->run(cfg, secret);
    });
    attack_timer.stop();

    TablePrinter t({"channel", "t[secret]", "median-ish t", "signal",
                    "leaked"});
    auto row = [&](const char *name, const AttackResult &res) {
        t.addRow({name, TablePrinter::fmt(res.timings[res.secret], 0),
                  TablePrinter::fmt(res.timings[res.secret] +
                                        res.signal, 0),
                  TablePrinter::fmt(res.signal, 1),
                  res.leaked() ? "YES (!!)" : "no"});
    };
    row("d-cache", r[0]);
    row("BTB", r[1]);
    if (co_resident) {
        row("SMT exec port", r[2]);
        row("SMT MSHR", r[3]);
    }
    t.print();

    bool blocked = true;
    for (const AttackResult &res : r)
        blocked = blocked && !res.leaked();
    std::printf("\nSummary: NDA permissive blocks %s channels: %s\n",
                co_resident ? "all four" : "both",
                blocked ? "yes" : "NO");

    // Strict propagation defers every unsafe tag broadcast, so the
    // exported Chrome trace shows the nda_defer slices of Fig 2.
    emitBenchObs(obs, "fig08_nda_defense", makeProfile(Profile::kStrict), sp,
                 [&](RunManifest &m, StatsRegistry &) {
                     m.set("cache_signal", r[0].signal);
                     m.set("btb_signal", r[1].signal);
                     if (co_resident) {
                         m.set("smt_port_signal", r[2].signal);
                         m.set("smt_mshr_signal", r[3].signal);
                     }
                     m.set("blocked", blocked);
                 });
    return blocked ? 0 : 1;
}
