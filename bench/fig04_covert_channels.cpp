/**
 * @file
 * Regenerates paper Figure 4: Spectre v1 per-guess timing through the
 * d-cache covert channel (~140-cycle dip at the secret) and through
 * the BTB covert channel (~16-cycle dip), on the insecure OoO core.
 */

#include <cstdio>

#include "attacks/attacks.hh"
#include "bench_common.hh"
#include "harness/table_printer.hh"

using namespace nda;

namespace {

void
printSeries(const char *channel, const AttackResult &r)
{
    std::printf("\n%s channel: secret byte = %d, recovered fastest "
                "guess = %d, signal = %.1f cycles (leaked: %s)\n",
                channel, r.secret, r.fastestGuess, r.signal,
                r.leaked() ? "YES" : "no");
    std::printf("%8s %10s\n", "guess", "cycles");
    double max_t = 0;
    for (double t : r.timings)
        max_t = std::max(max_t, t);
    for (int g = 0; g < 256; ++g) {
        // Print every 16th guess plus the secret and its neighbours
        // so the dip is visible in text form.
        const bool interesting =
            g % 16 == 0 || g == r.secret || g == r.secret - 1 ||
            g == r.secret + 1;
        if (!interesting)
            continue;
        std::printf("%8d %10.0f  |%s%s\n", g, r.timings[g],
                    asciiBar(r.timings[g], max_t, 40).c_str(),
                    g == r.secret ? "   <-- secret" : "");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    SampleParams sp;
    BenchObs obs;
    FlagTable flags(argv[0], "Figure 4: Spectre v1 guess timing "
                             "through the cache and BTB channels.");
    addSampleFlags(flags, sp);
    obs.addFlags(flags);
    flags.parseOrExit(argc, argv);
    sp.validate();

    printBanner("Figure 4: Spectre v1 guess timing, cache vs BTB "
                "covert channel (insecure OoO)");
    std::printf(
        "Paper reference: cache channel shows a ~140-cycle faster\n"
        "correct guess; BTB channel a ~16-cycle faster correct "
        "guess.\n");

    const SimConfig cfg = makeProfile(Profile::kOoo);
    const std::uint8_t secret = 42;

    ScopedTimer attack_timer(obs.timings, "attacks");
    SpectreV1Cache cache_attack;
    const AttackResult cache_r = cache_attack.run(cfg, secret);
    SpectreV1Btb btb_attack;
    const AttackResult btb_r = btb_attack.run(cfg, secret);
    attack_timer.stop();

    printSeries("d-cache", cache_r);
    printSeries("BTB", btb_r);

    std::printf("\nSummary (paper -> measured):\n");
    std::printf("  delta_cache  ~140 cycles -> %.0f cycles\n",
                cache_r.signal);
    std::printf("  delta_btb    ~16 cycles  -> %.0f cycles\n",
                btb_r.signal);
    std::printf("  both channels leak on insecure OoO: %s\n",
                cache_r.leaked() && btb_r.leaked() ? "yes" : "NO");

    emitBenchObs(obs, "fig04_covert_channels", makeProfile(Profile::kOoo), sp,
                 [&](RunManifest &m, StatsRegistry &) {
                     m.set("cache_signal", cache_r.signal);
                     m.set("btb_signal", btb_r.signal);
                 });
    return cache_r.leaked() && btb_r.leaked() ? 0 : 1;
}
