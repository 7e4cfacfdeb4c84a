/**
 * @file
 * Regenerates paper Table 1 (attack taxonomy: access method and
 * covert channel) and extends it with the empirical leak/block
 * outcome of every implemented attack against every machine profile —
 * the matrix Table 2's security columns summarize.
 *
 * Every cell carries a dual verdict: the *timing* verdict (did the
 * covert-channel receiver recover the secret byte?) and the *DIFT
 * oracle* verdict (did tainted data reach a persistent structure from
 * the wrong path?). The two are independent detectors of the same
 * event, so they must agree; `--oracle` turns any disagreement into a
 * nonzero exit for CI.
 *
 * Cells are independent simulations, so the sweep fans out over the
 * shared `parallelFor` (`--jobs=N`); each task constructs its own attack
 * instance and core, and writes into a pre-sized slot, keeping the
 * output bit-identical for any job count.
 */

#include <atomic>
#include <cstdio>
#include <string>
#include <vector>

#include "attacks/attack_registry.hh"
#include "bench_common.hh"
#include "common/thread_pool.hh"
#include "harness/profiles.hh"
#include "harness/table_printer.hh"

using namespace nda;

namespace {

/** Outcome of one (attack, profile) cell. */
struct CellResult {
    bool timingLeak = false;
    bool oracleLeak = false;
    bool expectBlocked = false;
};

} // namespace

int
main(int argc, char **argv)
{
    bool oracle_strict = false;
    // --oracle: fail (exit 1) if the timing and DIFT-oracle verdicts
    // disagree on any cell. --smt=1 restricts the matrix to the
    // single-thread rows, --smt=2 to the cross-thread (co-resident
    // attacker) rows; without the flag every attack runs. Cross-thread
    // attacks pick their own thread count in adjustConfig, so the flag
    // selects rows rather than reconfiguring cores.
    unsigned smt = 0;
    SampleParams params;
    BenchObs obs;
    FlagTable flags(argv[0], "Table 1: attack taxonomy plus the "
                             "empirical leak matrix.");
    addSampleFlags(flags, params);
    flags.flag("--oracle",
               "exit 1 if the timing and DIFT-oracle verdicts disagree",
               &oracle_strict);
    flags.number("--smt", "N",
                 "1: single-thread rows only; >= 2: cross-thread\n"
                 "rows only",
                 &smt);
    obs.addFlags(flags);
    flags.parseOrExit(argc, argv);
    params.validate();

    printBanner("Table 1: attack taxonomy");
    {
        TablePrinter t({"attack", "class", "covert channel",
                        "description"});
        for (const auto &a : makeAllAttacks()) {
            const AttackSpec &s = a->spec();
            t.addRow({s.name, accessClassName(s.taxonomy.trigger),
                      leakChannelName(s.taxonomy.channel), s.description});
        }
        t.print();
    }

    const std::vector<Profile> profiles = {
        Profile::kOoo,
        Profile::kPermissive,
        Profile::kPermissiveBr,
        Profile::kStrict,
        Profile::kStrictBr,
        Profile::kRestrictedLoads,
        Profile::kFullProtection,
        Profile::kInvisiSpecSpectre,
        Profile::kInvisiSpecFuture,
    };
    std::vector<std::string> attack_names;
    for (const auto &a : makeAllAttacks()) {
        if (smt == 1 && a->spec().crossThread)
            continue;
        if (smt >= 2 && !a->spec().crossThread)
            continue;
        attack_names.push_back(a->name());
    }

    const std::size_t cols = profiles.size();
    const std::size_t cells = attack_names.size() * cols;
    std::vector<CellResult> results(cells);

    // Each cell builds its own attack + core, so cells only share the
    // pre-sized result slots.
    std::atomic<std::size_t> done{0};
    ScopedTimer matrix_timer(obs.timings, "attack-matrix");
    parallelFor(params.jobs, cells, [&](std::size_t i) {
        const std::size_t row = i / cols;
        const Profile p = profiles[i % cols];
        auto attack = makeAttack(attack_names[row]);
        const SimConfig cfg = makeProfile(p);
        const AttackResult r = attack->run(cfg, 42);
        CellResult &cell = results[i];
        cell.timingLeak = r.leaked();
        cell.oracleLeak = r.oracle.leaked();
        cell.expectBlocked = blocks(cfg.security, attack->spec().taxonomy);
        gridProgress(++done, cells);
    });
    matrix_timer.stop();

    printBanner("Empirical leak matrix (secret byte 42; "
                "timing verdict / DIFT-oracle verdict)");
    std::vector<std::string> headers{"attack"};
    for (Profile p : profiles)
        headers.push_back(profileName(p));
    TablePrinter t(headers);

    int mismatches = 0;
    int disagreements = 0;
    for (std::size_t row = 0; row < attack_names.size(); ++row) {
        std::vector<std::string> cells_text{attack_names[row]};
        for (std::size_t col = 0; col < cols; ++col) {
            const CellResult &c = results[row * cols + col];
            std::string cell = c.timingLeak ? "LEAK" : "safe";
            cell += c.oracleLeak ? "/flow" : "/clean";
            if (c.timingLeak != !c.expectBlocked) {
                cell += " (!!)";
                ++mismatches;
            }
            if (c.timingLeak != c.oracleLeak) {
                cell += " (?!)";
                ++disagreements;
            }
            cells_text.push_back(cell);
        }
        t.addRow(cells_text);
    }
    t.print();

    std::printf("\nPaper Table 2 semantics check: %d deviations.\n",
                mismatches);
    std::printf("Timing vs DIFT oracle: %d of %zu cells disagree.\n",
                disagreements, cells);

    emitBenchObs(obs, "table01_attack_matrix", makeProfile(Profile::kStrict),
                 params, [&](RunManifest &m, StatsRegistry &) {
                     m.set("mismatches",
                           static_cast<std::uint64_t>(mismatches));
                     m.set("oracle_disagreements",
                           static_cast<std::uint64_t>(disagreements));
                 });
    if (mismatches != 0)
        return 1;
    if (oracle_strict && disagreements != 0)
        return 1;
    return 0;
}
