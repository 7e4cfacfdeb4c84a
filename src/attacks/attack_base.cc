#include "attacks/attack_base.hh"

#include <algorithm>

#include "attacks/covert_channel.hh"
#include "common/log.hh"
#include "core/core_factory.hh"
#include "dift/taint_engine.hh"

namespace nda {

const char *
accessClassName(AttackClass::Trigger trigger)
{
    return trigger == AttackClass::Trigger::kChosenCode
               ? "chosen-code"
               : "control-steering";
}

bool
blocks(const SecurityConfig &cfg, const AttackClass &c)
{
    using Trigger = AttackClass::Trigger;

    // InvisiSpec hides a speculative load's cache fill and MSHR
    // allocation (shadow loads peek the hierarchy), but it still
    // forwards the value, so a BTB or port transmit goes through.
    // IS-Spectre makes a load visible once older branches resolve,
    // which covers only branch-triggered windows; IS-Future waits
    // for the load to be non-speculative, which covers every window.
    const bool invisible_load =
        (c.channel == LeakChannel::kDCache ||
         c.channel == LeakChannel::kMshrContention) &&
        (cfg.invisiSpec == InvisiSpecMode::kFuture ||
         (cfg.invisiSpec == InvisiSpecMode::kSpectre &&
          c.trigger == Trigger::kBranch));

    switch (c.trigger) {
      case Trigger::kChosenCode:
        // Without the flaw the faulting access forwards nothing.
        // Propagation policies do not apply: no branch is unresolved.
        // Load restriction keeps the faulting load's value from its
        // dependents until it is the eldest, where it faults.
        return !cfg.meltdownFlaw || cfg.loadRestriction || invisible_load;
      case Trigger::kStoreBypass:
        // No branch either; Bypass Restriction keeps the bypassing
        // load unsafe until the bypassed stores resolve.
        return cfg.bypassRestriction || cfg.loadRestriction ||
               invisible_load;
      case Trigger::kBranch:
        // A secret already in a register needs no load under the
        // branch: only strict propagation defers the non-load ops
        // that pre-process and transmit it.
        if (c.origin == AttackClass::Origin::kGpr)
            return cfg.propagation == NdaPolicy::kStrict || invisible_load;
        // A memory secret's load never wakes its dependents under any
        // propagation policy, nor, off the ROB head, under load
        // restriction: the transmit never runs, whatever the channel.
        return cfg.propagation != NdaPolicy::kNone ||
               cfg.loadRestriction || invisible_load;
    }
    return false;
}

void
AttackBase::declareSecrets(SecretMap &secrets) const
{
    secrets.addMemRange(attack_layout::kSecretAddr, 1, "victim-secret");
}

void
AttackBase::recoverByTiming(const CoreBase &core, AttackResult &result)
{
    std::array<double, 256> times{};
    for (int g = 0; g < 256; ++g) {
        times[g] = static_cast<double>(core.mem().read(
            attack_layout::kResultsBase + static_cast<Addr>(g) * 8, 8));
    }
    result.timings = times;

    result.fastestGuess = static_cast<int>(
        std::min_element(times.begin(), times.end()) - times.begin());

    std::array<double, 256> sorted = times;
    std::nth_element(sorted.begin(), sorted.begin() + 128, sorted.end());
    const double median = sorted[128];
    result.signal = median - times[result.secret];
    result.margin = result.signal - result.threshold;
}

AttackResult
AttackBase::run(const SimConfig &cfg, std::uint8_t secret,
                Cycle max_cycles) const
{
    SimConfig attack_cfg = cfg;
    adjustConfig(attack_cfg);

    const Program prog = build(secret);

    // The DIFT oracle watches the same run the timing channel probes.
    SecretMap secrets;
    declareSecrets(secrets);
    TaintEngine dift(secrets);

    auto core = makeCore(prog, attack_cfg);
    core->attachDift(&dift);
    const StopReason why = core->run(~std::uint64_t{0}, max_cycles);
    NDA_ASSERT(why == StopReason::kHalted,
               "attack '%s' did not halt: %s at cycle %llu",
               name().c_str(), stopReasonName(why),
               static_cast<unsigned long long>(core->cycle()));

    AttackResult result;
    result.secret = secret;
    result.cycles = core->cycle();
    result.threshold = spec_.signalThreshold;
    recoverByTiming(*core, result);
    result.oracle = dift.report();
    return result;
}

} // namespace nda
