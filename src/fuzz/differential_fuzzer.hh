/**
 * @file
 * Differential fuzzing driver: random terminating programs are run on
 * the reference interpreter (the architectural oracle) and on every
 * requested machine profile — in-order, insecure OoO, all NDA
 * policies, both InvisiSpec models — with three layers of checking:
 *
 *  1. architectural state (registers, every data segment, fault and
 *     instruction counts) must match the interpreter, since NDA only
 *     ever changes timing (paper §5);
 *  2. the DIFT oracle's *architectural* taint state must match: the
 *     same secret bytes must end up tainting the same registers and
 *     memory locations regardless of the core model (timing-dependent
 *     leak events are explicitly NOT compared);
 *  3. the per-cycle InvariantChecker must stay silent on the OoO
 *     pipeline for the entire run.
 *
 * Seeds fan out over the shared `parallelFor`; each seed's verdict is
 * written into its own slot and reduced in seed order, so the result
 * (including the fingerprint) is bit-identical for any --jobs value.
 */

#ifndef NDASIM_FUZZ_DIFFERENTIAL_FUZZER_HH
#define NDASIM_FUZZ_DIFFERENTIAL_FUZZER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "fuzz/invariant_checker.hh"
#include "harness/profiles.hh"
#include "isa/program.hh"
#include "isa/random_program.hh"

namespace nda {

class StatsRegistry;

/** Fuzzing campaign knobs. */
struct FuzzParams {
    std::uint64_t runs = 100;   ///< number of seeds to test
    std::uint64_t seed0 = 1;    ///< first seed (run i uses seed0 + i)
    unsigned jobs = 1;          ///< concurrent seeds (1 = serial)
    bool checkInvariants = true;
    bool compareTaint = true;
    /** Profiles to cross-check; empty = all ten paper profiles. */
    std::vector<Profile> profiles;
    /** Per-core cycle budget before a run counts as hung. */
    Cycle maxCycles = 20'000'000;
    /** MSHR entries per L1 file on every profile (0 = legacy eager
     *  fills). Timing-only, so the architectural oracle is unchanged —
     *  this axis stresses the non-blocking plumbing. */
    unsigned mshrEntries = 0;
};

/** What went wrong for one (seed, profile) pair. */
enum class FuzzFailureKind : std::uint8_t {
    kArchMismatch = 0,  ///< register/memory state differs from oracle
    kFaultMismatch,     ///< delivered-fault count differs
    kCountMismatch,     ///< committed instruction count differs
    kTaintMismatch,     ///< DIFT architectural taint differs
    kInvariantViolation,///< InvariantChecker fired during the run
    kCoreHang,          ///< core stopped committing or blew the budget
};

const char *fuzzFailureKindName(FuzzFailureKind kind);

/** One recorded failure. */
struct FuzzFailure {
    std::uint64_t seed = 0;
    Profile profile = Profile::kOoo;
    FuzzFailureKind kind = FuzzFailureKind::kArchMismatch;
    std::string detail;
};

/** Verdict for one candidate program across all profiles. */
struct SeedOutcome {
    bool skipped = false;   ///< oracle did not halt cleanly; not judged
    std::uint64_t hash = 0; ///< deterministic outcome fingerprint
    std::vector<FuzzFailure> failures;
};

/** Campaign summary. */
struct FuzzResult {
    std::uint64_t executed = 0;
    std::uint64_t skipped = 0;
    /** Order-stable hash over every seed's outcome; identical for any
     *  jobs count, so CI can assert reproducibility cheaply. */
    std::uint64_t fingerprint = 0;
    std::vector<FuzzFailure> failures; ///< in seed order

    /** Bind campaign totals under `prefix` (for the run manifest).
     *  The result must outlive the registry's last dump. */
    void registerStats(StatsRegistry &reg,
                       const std::string &prefix) const;
};

/**
 * Structurally varied generator parameters for one seed (block count,
 * loop depth, opcode extras...), so a campaign covers many program
 * shapes rather than one distribution. Deterministic per seed.
 */
RandomProgramParams paramsForSeed(std::uint64_t seed);

/**
 * Judge one candidate program across `p.profiles` (seed is used only
 * for labeling and hashing). This is the primitive the campaign
 * driver, the minimizer predicate, and the corpus replay test share.
 */
SeedOutcome fuzzProgram(const Program &prog, std::uint64_t seed,
                        const FuzzParams &p);

/** Run a whole campaign, fanning seeds out over `p.jobs` lanes. */
FuzzResult runFuzz(const FuzzParams &p,
                   const std::function<void(std::size_t, std::size_t)>
                       &progress = nullptr);

/** Result of an injection experiment (checker self-test). */
struct InjectionOutcome {
    bool applied = false;  ///< the corruption found applicable state
    std::uint64_t violations = 0;
    std::string firstViolation;
    std::vector<InvariantKind> kinds; ///< distinct kinds reported
};

/**
 * Run `prog` on `profile`'s OoO core with the checker attached and
 * deliberately corrupt pipeline state with `kind` at the first
 * applicable cycle at or after `inject_cycle` (retrying each cycle).
 * The run stops shortly after the corruption lands — per-cycle
 * checking means detection must be immediate — so cascading damage
 * cannot crash the host process. In-order profiles never apply.
 */
InjectionOutcome runWithInjection(const Program &prog, Profile profile,
                                  FuzzCorruption kind,
                                  Cycle inject_cycle,
                                  Cycle max_cycles = 4'000'000);

/** The invariant family a given corruption must trip. */
InvariantKind expectedInvariant(FuzzCorruption kind);

} // namespace nda

#endif // NDASIM_FUZZ_DIFFERENTIAL_FUZZER_HH
