#include "attacks/attack_base.hh"

#include <algorithm>

#include "attacks/covert_channel.hh"
#include "common/log.hh"
#include "core/core_factory.hh"
#include "dift/taint_engine.hh"

namespace nda {

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
    result.threshold = signalThreshold();
    recoverByTiming(*core, result);
    result.oracle = dift.report();
    return result;
}

} // namespace nda
