/**
 * @file
 * End-to-end Spectre demonstration: run any of the implemented attack
 * PoCs against any machine profile and watch the covert channel leak
 * (or not). Defaults to Spectre v1 (cache channel) with secret 0xA5.
 *
 *   ./build/examples/spectre_demo [attack] [profile-index] [secret]
 *
 * Attacks: spectre-v1-cache spectre-v1-btb spectre-v1.1 spectre-v2
 *          ret2spec spectre-v4-ssb spectre-gpr meltdown lazyfp-v3a
 *          smother-port smt-mshr
 * Profiles: 0=OoO 1=Permissive 2=Permissive+BR 3=Strict 4=Strict+BR
 *           5=Restricted Loads 6=Full Protection 7=In-Order
 *           8=InvisiSpec-Spectre 9=InvisiSpec-Future
 */

#include <cstdio>

#include "attacks/attack_registry.hh"
#include "common/flags.hh"
#include "harness/profiles.hh"
#include "harness/table_printer.hh"

using namespace nda;

int
main(int argc, char **argv)
{
    std::string attack_name = "spectre-v1-cache";
    unsigned profile_idx = 0;
    std::uint8_t secret = 0xA5;
    FlagTable flags(argv[0], "Run one attack PoC against one machine "
                             "profile.");
    flags.text("attack", "NAME", "attack to run (default: spectre-v1-cache)",
               &attack_name);
    flags.number("profile-index", "N",
                 "Fig 7 column of the machine profile (default: 0 = OoO)",
                 &profile_idx);
    flags.number("secret", "N", "secret byte, 0-255 (default: 165)",
                 &secret);
    flags.parseOrExit(argc, argv);

    auto attack = makeAttack(attack_name);
    if (!attack) {
        std::fprintf(stderr, "unknown attack '%s'\n",
                     attack_name.c_str());
        return 2;
    }
    if (profile_idx >= static_cast<unsigned>(Profile::kNumProfiles)) {
        std::fprintf(stderr, "profile index out of range\n");
        return 2;
    }
    const SimConfig cfg =
        makeProfile(static_cast<Profile>(profile_idx));

    std::printf("attack : %s (%s, %s channel)\n",
                attack->name().c_str(),
                accessClassName(attack->spec().taxonomy.trigger),
                leakChannelName(attack->spec().taxonomy.channel));
    std::printf("machine: %s\n", cfg.name.c_str());
    std::printf("secret : 0x%02X (%d)\n\n", secret, secret);

    const AttackResult r = attack->run(cfg, secret);

    std::printf("per-guess timings (around the secret):\n");
    for (int g = std::max(0, secret - 3);
         g <= std::min(255, secret + 3); ++g) {
        std::printf("  guess %3d: %6.0f cycles%s\n", g, r.timings[g],
                    g == secret ? "   <-- secret" : "");
    }
    std::printf("\nfastest guess : %d (%.0f cycles)\n", r.fastestGuess,
                r.timings[r.fastestGuess]);
    std::printf("leak signal   : %.1f cycles (threshold %.1f, "
                "margin %+.1f)\n",
                r.signal, r.threshold, r.margin);
    std::printf("timing verdict: %s\n",
                r.leaked() ? "SECRET LEAKED" : "blocked");
    std::printf("attack took   : %llu simulated cycles\n",
                static_cast<unsigned long long>(r.cycles));

    // The DIFT oracle explains *why*: where the secret entered the
    // pipeline and which persistent structure the wrong path wrote.
    std::printf("\noracle verdict: %s\n",
                r.oracle.leaked() ? "SECRET FLOW DETECTED"
                                  : "no secret flow");
    if (r.oracle.leaked()) {
        const LeakEvent &ev = r.oracle.first();
        std::printf("first leak    : cycle %llu, %s %s at pc %llu "
                    "(access at pc %llu)\n",
                    static_cast<unsigned long long>(
                        r.oracle.firstLeakCycle()),
                    leakChannelName(ev.channel), ev.detail,
                    static_cast<unsigned long long>(ev.transmitPc),
                    static_cast<unsigned long long>(ev.accessPc));
        std::printf("secret flows  :\n%s",
                    r.oracle.describe().c_str());
    }
    std::printf("agreement     : timing and oracle %s\n",
                r.leaked() == r.oracle.leaked() ? "AGREE"
                                                : "DISAGREE (!!)");
    return 0;
}
