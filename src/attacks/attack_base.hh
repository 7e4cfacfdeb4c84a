/**
 * @file
 * Common driver for the speculative-execution-attack PoCs (paper §3,
 * Table 1/Table 2). Each attack builds a self-contained program with
 * a planted secret byte, runs it on a configurable core, and recovers
 * the secret from the per-guess timing table the program writes.
 */

#ifndef NDASIM_ATTACKS_ATTACK_BASE_HH
#define NDASIM_ATTACKS_ATTACK_BASE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/core_config.hh"
#include "dift/leak_report.hh"
#include "dift/secret_map.hh"
#include "isa/program.hh"

namespace nda {

class CoreBase;

/** Outcome of one attack run. */
struct AttackResult {
    /** Average measured cycles per guess value. */
    std::array<double, 256> timings{};
    /** Guess with the minimum time (the channel signals via speed). */
    int fastestGuess = -1;
    /** Median(timings) - timings[secret]: the leak signal strength. */
    double signal = 0.0;
    /** Signal threshold the attack used. */
    double threshold = 0.0;
    /** How far the signal clears (+) or misses (-) the threshold. */
    double margin = 0.0;
    /** The planted secret. */
    int secret = -1;
    /** Cycles the whole attack program took. */
    Cycle cycles = 0;
    /** The DIFT oracle's ground-truth verdict for the same run. */
    LeakReport oracle;

    /**
     * Did the covert channel reveal the secret? True when the secret
     * guess is decisively faster than the median guess (robust to a
     * stray warm line polluting one other guess value).
     */
    bool leaked() const { return signal > threshold; }
};

/**
 * Where an attack sits in the paper's taxonomy (Table 1): what starts
 * its transient window, where its secret lives, and which structure
 * its transmit changes (named as the DIFT oracle names it).
 */
struct AttackClass {
    enum class Trigger : std::uint8_t {
        kBranch,       ///< control-steering: a mispredicted branch
        kStoreBypass,  ///< control-steering: a load bypasses a store
        kChosenCode,   ///< attacker code exploiting a hardware flaw
    };
    enum class Origin : std::uint8_t {
        kMemory,
        kGpr,          ///< already in a general-purpose register
        kSpecialReg,   ///< a privileged special register (MSR)
    };

    Trigger trigger = Trigger::kBranch;
    Origin origin = Origin::kMemory;
    LeakChannel channel = LeakChannel::kDCache;
};

/** "control-steering" or "chosen-code" (the paper's two classes). */
const char *accessClassName(AttackClass::Trigger trigger);

/**
 * Paper Table 2, stated once: does security configuration `cfg`
 * block every attack of class `c`?
 */
bool blocks(const SecurityConfig &cfg, const AttackClass &c);

/** Everything fixed about one attack PoC. */
struct AttackSpec {
    std::string name;
    /** Short description for Table 1 / docs. */
    std::string description;
    AttackClass taxonomy;
    /**
     * Does this attack require a co-resident SMT attacker thread?
     * Cross-thread attacks force `smtThreads = 2` in adjustConfig and
     * split the NDA policy per thread (protected victim on thread 0,
     * unprotected attacker on thread 1); `table01_attack_matrix
     * --smt=2` restricts its matrix to these rows.
     */
    bool crossThread = false;
    /** Minimum timing signal (cycles) considered a leak. */
    double signalThreshold = 30.0;
};

/** Base class of all attack PoCs. */
class AttackBase
{
  public:
    explicit AttackBase(AttackSpec spec) : spec_(std::move(spec)) {}
    virtual ~AttackBase() = default;

    const AttackSpec &spec() const { return spec_; }
    const std::string &name() const { return spec_.name; }

    /** Build the PoC program with `secret` planted. */
    virtual Program build(std::uint8_t secret) const = 0;

    /** Attack-specific config tweaks (e.g., smaller BTB tags). */
    virtual void adjustConfig(SimConfig &cfg) const { (void)cfg; }

    /**
     * Declare this attack's secrets to the DIFT leakage oracle. The
     * default is the shared in-victim-memory secret byte
     * (attack_layout::kSecretAddr); attacks with a different secret
     * home (stale store slot, kernel page, MSR) override this.
     */
    virtual void declareSecrets(SecretMap &secrets) const;

    /** Build, run (up to `max_cycles`), and evaluate the attack. */
    AttackResult run(const SimConfig &cfg, std::uint8_t secret,
                     Cycle max_cycles = 40'000'000) const;

    /**
     * Shared timing-recovery step: read the per-guess timing table
     * the program wrote (attack_layout::kResultsBase), pick the
     * fastest guess, and derive signal and margin from the median.
     * `result.threshold` and `result.secret` must already be set.
     */
    static void recoverByTiming(const CoreBase &core,
                                AttackResult &result);

  protected:
    /** Short names for the spec each subclass hands the constructor. */
    using Trigger = AttackClass::Trigger;
    using Origin = AttackClass::Origin;
    using Channel = LeakChannel;

  private:
    AttackSpec spec_;
};

} // namespace nda

#endif // NDASIM_ATTACKS_ATTACK_BASE_HH
