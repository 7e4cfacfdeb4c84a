/**
 * @file
 * LazyFP / Meltdown v3a analog: a user-mode read of a privileged
 * special register (RDMSR) forwards the stale value to dependents
 * before the permission fault is delivered. NDA treats RDMSR like a
 * load (paper §5.2/§5.3), so load restriction blocks it.
 */

#include "attacks/attacks.hh"
#include "attacks/covert_channel.hh"

namespace nda {

using namespace attack_layout;

namespace {
/** The privileged MSR holding another context's secret. */
constexpr unsigned kSecretMsr = 3;
} // namespace

Program
LazyFp::build(std::uint8_t secret) const
{
    ProgramBuilder b("lazyfp-v3a");
    declareChannelSegments(b);
    b.initMsr(kSecretMsr, secret, /*privileged=*/true);

    emitProbeFlush(b);
    b.fence();

    // (1) access: privileged special-register read (faults at commit).
    b.rdmsr(11, kSecretMsr);
    // (2) transmit in the fault's shadow.
    emitCacheTransmit(b, 11);
    for (int i = 0; i < 8; ++i)
        b.nop();
    b.halt(); // not reached

    // (3) recover in the fault handler.
    auto handler = b.label();
    b.faultHandlerAt(handler);
    emitCacheRecoverLoop(b);
    b.halt();
    return b.build();
}

void
LazyFp::declareSecrets(SecretMap &secrets) const
{
    secrets.addMsr(kSecretMsr, "privileged-msr");
}

} // namespace nda
