/**
 * @file
 * Hypothetical control-steering attack on a *GPR-resident* secret
 * (paper §4.2): the victim legitimately loads a secret into a
 * general-purpose register; the attacker then mis-steers the victim's
 * return into a gadget that pre-processes (shift — a non-load op) and
 * transmits the register's value.
 *
 * This attack separates NDA's strict and permissive policies:
 * permissive propagation marks only loads unsafe, so the non-load
 * pre-processing wakes the transmit load and the secret leaks; strict
 * propagation defers the pre-processing op's broadcast and blocks it
 * (Table 2, "Control steering (GPRs)" column).
 */

#include "attacks/attacks.hh"
#include "attacks/covert_channel.hh"

namespace nda {

using namespace attack_layout;

namespace {
constexpr Addr kRetSlot = kVictimBase + 0x900;
} // namespace

Program
SpectreGpr::build(std::uint8_t secret) const
{
    ProgramBuilder b("spectre-gpr");
    declareChannelSegments(b);
    b.segment(kSecretAddr, {secret});

    auto main_l = b.futureLabel();
    b.jmp(main_l);

    // --- victim F: loads its secret into r25 for legitimate use, then
    // returns through a corrupted (slow) return address.
    auto victim = b.label();
    b.movi(9, static_cast<std::int64_t>(kSecretAddr));
    b.load(25, 9, 0, 1);             // secret -> GPR (correct path!)
    b.movi(19, static_cast<std::int64_t>(kRetSlot));
    b.load(20, 19, 0, 8);            // slow corrupted return address
    b.mov(30, 20);
    b.ret(30);                       // RAS predicts call-site + 1

    // --- recovery landing point (actual return target) ------------------
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
    // Wrong-path gadget at the predicted return target. Note: no load
    // of the secret here — it is already in r25. The pre-processing
    // (shli, add) consists of non-load micro-ops.
    b.shli(15, 25, 9);
    b.movi(16, static_cast<std::int64_t>(kProbeBase));
    b.add(16, 16, 15);
    b.load(17, 16, 0, 1);            // transmit
    b.halt();                        // unreachable
    return b.build();
}

} // namespace nda
