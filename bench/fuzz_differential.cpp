/**
 * @file
 * Differential fuzzing campaign driver.
 *
 * Default mode generates `--runs` random programs and cross-checks the
 * reference interpreter against every machine profile (architectural
 * state, DIFT taint, per-cycle pipeline invariants). `--inject=KIND`
 * instead runs the checker self-test: deliberately corrupt pipeline
 * state and verify the corruption is caught by the expected invariant
 * family. `--minimize` shrinks any failing (or injected) program to a
 * small repro under --corpus-dir.
 *
 * Exit status: 0 = clean, 1 = failures found (or an injected
 * corruption went undetected), 2 = usage error.
 */

#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hh"
#include "common/thread_pool.hh"
#include "fuzz/corpus.hh"
#include "fuzz/differential_fuzzer.hh"
#include "fuzz/minimizer.hh"

namespace {

using namespace nda;

/** "still fails the same way" for campaign failures: the shrunk
 *  program must reproduce the same failure kind on the same profile
 *  (checked alone, so minimization stays cheap). */
FailurePredicate
makeDiffPredicate(const FuzzFailure &fail, const FuzzParams &campaign)
{
    FuzzParams p = campaign;
    p.profiles = {fail.profile};
    return [p, fail](const Program &candidate) {
        const SeedOutcome out = fuzzProgram(candidate, fail.seed, p);
        for (const FuzzFailure &f : out.failures) {
            if (f.kind == fail.kind)
                return true;
        }
        return false;
    };
}

/** Predicate for injection repros: the shrunk program must still (a)
 *  halt cleanly and match the oracle on the target profile — corpus
 *  replay runs it uncorrupted and expects green — and (b) reach
 *  pipeline state where the corruption applies and trips the expected
 *  invariant family. */
FailurePredicate
makeInjectPredicate(Profile profile, FuzzCorruption kind,
                    Cycle inject_cycle)
{
    FuzzParams quick;
    quick.profiles = {profile};
    quick.checkInvariants = true;
    quick.compareTaint = false;
    return [profile, kind, inject_cycle,
            quick](const Program &candidate) {
        const SeedOutcome clean = fuzzProgram(candidate, 0, quick);
        if (clean.skipped || !clean.failures.empty())
            return false;
        const InjectionOutcome out =
            runWithInjection(candidate, profile, kind, inject_cycle);
        if (!out.applied)
            return false;
        const InvariantKind expected = expectedInvariant(kind);
        for (InvariantKind k : out.kinds) {
            if (k == expected)
                return true;
        }
        return false;
    };
}

int
runInjectMode(Profile profile, FuzzCorruption kind,
              std::uint64_t seed, Cycle inject_cycle, bool minimize,
              const std::string &corpus_dir)
{
    const Program prog = generateRandomProgram(seed, paramsForSeed(seed));
    const InjectionOutcome out =
        runWithInjection(prog, profile, kind, inject_cycle);

    std::printf("inject %s on '%s' (seed %llu, cycle >= %llu): ",
                fuzzCorruptionName(kind), profileName(profile),
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(inject_cycle));
    if (!out.applied) {
        std::printf("corruption never applied\n");
        return 1;
    }
    std::printf("%llu violation(s)\n",
                static_cast<unsigned long long>(out.violations));
    if (!out.firstViolation.empty())
        std::printf("  first: %s\n", out.firstViolation.c_str());

    const InvariantKind expected = expectedInvariant(kind);
    bool caught = false;
    for (InvariantKind k : out.kinds)
        caught = caught || k == expected;
    if (!caught) {
        std::printf("  NOT caught by expected invariant '%s'\n",
                    invariantKindName(expected));
        return 1;
    }
    std::printf("  caught by expected invariant '%s'\n",
                invariantKindName(expected));

    if (minimize) {
        MinimizeStats stats;
        const Program small = minimizeProgram(
            prog, makeInjectPredicate(profile, kind, inject_cycle),
            &stats);
        std::printf("  minimized: %u -> %u ops (%u candidates)\n",
                    stats.opsBefore, stats.opsAfter,
                    stats.candidatesTried);
        const std::string path = writeCorpusEntry(
            corpus_dir, std::string("inject-") + fuzzCorruptionName(kind),
            seed, small,
            {std::string("minimized repro: corruption '") +
                 fuzzCorruptionName(kind) + "' injected on profile '" +
                 profileName(profile) + "' trips invariant '" +
                 invariantKindName(expected) + "'",
             "replays clean (uncorrupted) on every profile"});
        std::printf("  corpus: %s\n", path.c_str());
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    FuzzParams params;
    params.jobs = defaultConcurrency();
    BenchObs obs;
    bool minimize = false;
    std::string corpus_dir = "tests/corpus";
    FuzzCorruption inject_kind = FuzzCorruption::kNone;
    std::uint64_t inject_seed = 1;
    Cycle inject_cycle = 2000;

    std::vector<std::pair<std::string, Profile>> profiles;
    for (Profile p : allProfiles())
        profiles.emplace_back(profileName(p), p);
    std::vector<std::pair<std::string, FuzzCorruption>> corruptions;
    std::string corruption_names;
    for (int k = 1;
         k <= static_cast<int>(FuzzCorruption::kCrossThreadRenameBleed);
         ++k) {
        const auto kind = static_cast<FuzzCorruption>(k);
        corruptions.emplace_back(fuzzCorruptionName(kind), kind);
        corruption_names += (k % 3 == 1 ? "\n" : " ") +
                            corruptions.back().first;
    }

    FlagTable flags(argv[0],
                    "Differential fuzzing: interpreter vs every profile.\n"
                    "Exit status: 0 clean, 1 failures found (or an "
                    "injected corruption\nwent undetected), 2 usage "
                    "error.");
    flags.number("--runs", "N", "seeds to test (default 100)",
                 &params.runs);
    flags.number("--seed0", "N", "first seed (default 1)", &params.seed0);
    flags.number<unsigned>(
        "--jobs", "N",
        "parallel lanes (default, or 0: hardware threads;\n"
        "results are identical for any N)",
        [&params](unsigned n) {
            params.jobs = n ? n : defaultConcurrency();
        });
    flags.choice<Profile>(
        "--profile", "NAME",
        "restrict to one profile, by its Fig 7 name (repeatable;\n"
        "default: all ten)",
        std::move(profiles),
        [&params](Profile p) { params.profiles.push_back(p); });
    flags.flag("--no-dift", "skip DIFT taint comparison",
               [&params] { params.compareTaint = false; });
    flags.flag("--no-invariants", "detach the per-cycle invariant checker",
               [&params] { params.checkInvariants = false; });
    addMshrFlag(flags, &params.mshrEntries);
    flags.flag("--minimize",
               "shrink failing programs and write corpus entries",
               &minimize);
    flags.text("--corpus-dir", "DIR",
               "corpus output directory (default tests/corpus)",
               &corpus_dir);
    flags.choice("--inject", "KIND",
                 "checker self-test: corrupt the pipeline and expect the\n"
                 "matching invariant to fire; KIND is one of" +
                     corruption_names,
                 std::move(corruptions), &inject_kind);
    flags.number("--inject-seed", "N",
                 "program seed for --inject (default 1)", &inject_seed);
    flags.number("--inject-cycle", "N",
                 "first cycle eligible for corruption (default 2000)",
                 &inject_cycle);
    obs.addFlags(flags);
    flags.parseOrExit(argc, argv);

    if (inject_kind != FuzzCorruption::kNone) {
        const Profile profile = params.profiles.empty()
                                    ? Profile::kStrict
                                    : params.profiles.front();
        return runInjectMode(profile, inject_kind, inject_seed,
                             inject_cycle, minimize, corpus_dir);
    }

    ScopedTimer campaign_timer(obs.timings, "campaign");
    const FuzzResult result = runFuzz(
        params, [](std::size_t done, std::size_t total) {
            if (logVerbosity < 1)
                return;
            std::fprintf(stderr, "\r  %zu/%zu seeds", done, total);
            if (done == total)
                std::fprintf(stderr, "\n");
        });
    campaign_timer.stop();

    std::printf("fuzz: %llu executed, %llu skipped, fingerprint "
                "%016llx\n",
                static_cast<unsigned long long>(result.executed),
                static_cast<unsigned long long>(result.skipped),
                static_cast<unsigned long long>(result.fingerprint));
    for (const FuzzFailure &f : result.failures) {
        std::printf("FAIL seed %llu profile '%s' [%s]: %s\n",
                    static_cast<unsigned long long>(f.seed),
                    profileName(f.profile), fuzzFailureKindName(f.kind),
                    f.detail.c_str());
    }

    if (minimize && !result.failures.empty()) {
        // One corpus entry per failing seed, keyed on its first
        // failure (later failures on the same seed are usually
        // downstream echoes of the same divergence).
        std::map<std::uint64_t, const FuzzFailure *> by_seed;
        for (const FuzzFailure &f : result.failures)
            by_seed.emplace(f.seed, &f);
        for (const auto &[seed, fail] : by_seed) {
            const Program prog =
                generateRandomProgram(seed, paramsForSeed(seed));
            MinimizeStats stats;
            const Program small = minimizeProgram(
                prog, makeDiffPredicate(*fail, params), &stats);
            const std::string path = writeCorpusEntry(
                corpus_dir,
                std::string("diff-") + fuzzFailureKindName(fail->kind),
                seed, small,
                {std::string("minimized repro: ") +
                     fuzzFailureKindName(fail->kind) + " on profile '" +
                     profileName(fail->profile) + "'",
                 fail->detail});
            std::printf("minimized seed %llu: %u -> %u ops -> %s\n",
                        static_cast<unsigned long long>(seed),
                        stats.opsBefore, stats.opsAfter, path.c_str());
        }
    }

    SampleParams sp;
    sp.baseSeed = params.seed0;
    sp.jobs = params.jobs;
    SimConfig obs_cfg = makeProfile(Profile::kStrict);
    obs_cfg.memory.mshrEntries = params.mshrEntries;
    emitBenchObs(obs, "fuzz_differential", obs_cfg, sp,
                 [&](RunManifest &m, StatsRegistry &reg) {
                     m.set("runs", params.runs);
                     m.set("seed0", params.seed0);
                     result.registerStats(reg, "fuzz");
                 });

    if (result.failures.empty()) {
        std::printf("OK\n");
        return 0;
    }
    return 1;
}
