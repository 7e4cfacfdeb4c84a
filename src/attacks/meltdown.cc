/**
 * @file
 * Meltdown — paper Listing 2. Chosen-code attack: a user-mode load of
 * kernel memory forwards its value to dependents before the permission
 * fault is delivered at retirement. The dependent chain transmits the
 * value through the d-cache; the architectural fault lands in the
 * attacker's handler, which runs the recovery loop.
 */

#include "attacks/attacks.hh"
#include "attacks/covert_channel.hh"

namespace nda {

using namespace attack_layout;

Program
Meltdown::build(std::uint8_t secret) const
{
    ProgramBuilder b("meltdown");
    declareChannelSegments(b);
    b.segment(kKernelSecret, {secret}, MemPerm::kKernel);

    // The kernel line is warm (the kernel touched it recently) —
    // standard Meltdown precondition.
    b.movi(1, static_cast<std::int64_t>(kKernelSecret));
    b.prefetch(1, 0);
    emitProbeFlush(b);
    b.fence();

    // (1) access: the faulting load.
    b.movi(10, static_cast<std::int64_t>(kKernelSecret));
    b.load(11, 10, 0, 1);            // faults at commit
    // (2) transmit: executes in the fault's shadow.
    emitCacheTransmit(b, 11);
    // Padding the fault window (the attacker's nops).
    for (int i = 0; i < 8; ++i)
        b.nop();
    b.halt(); // not reached: the fault redirects to the handler

    // (3) recover, in the fault handler.
    auto handler = b.label();
    b.faultHandlerAt(handler);
    emitCacheRecoverLoop(b);
    b.halt();
    return b.build();
}

void
Meltdown::declareSecrets(SecretMap &secrets) const
{
    secrets.addMemRange(kKernelSecret, 1, "kernel-page");
}

} // namespace nda
