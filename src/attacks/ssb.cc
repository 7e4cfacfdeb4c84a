/**
 * @file
 * Spectre v4 — Speculative Store Bypass (paper §4.1). A store whose
 * address arrives late is bypassed by a younger load to the same
 * address, which reads the stale (secret) value and transmits it
 * before the memory-order violation squashes the wrong path. NDA's
 * Bypass Restriction (paper §5.2) marks the bypassing load unsafe
 * until every bypassed store resolves.
 */

#include "attacks/attacks.hh"
#include "attacks/covert_channel.hh"

namespace nda {

using namespace attack_layout;

namespace {
/** Attacker-visible slot the victim scrubs: holds the stale secret. */
constexpr Addr kStaleAddr = kVictimBase + 0x400;
/** Pointer cell whose (flushed) load delays the store address. */
constexpr Addr kPtrSlot = kVictimBase + 0x500;
} // namespace

Program
SpectreSsb::build(std::uint8_t secret) const
{
    ProgramBuilder b("spectre-v4-ssb");
    declareChannelSegments(b);
    b.segment(kStaleAddr, {secret});
    b.word(kPtrSlot, kStaleAddr);

    // Warm the stale line so the bypassing load completes inside the
    // window; flush the pointer cell so the store address is late.
    b.movi(1, static_cast<std::int64_t>(kStaleAddr));
    b.prefetch(1, 0);
    emitProbeFlush(b);
    b.movi(20, static_cast<std::int64_t>(kPtrSlot));
    b.clflush(20, 0);
    b.fence();

    // Victim snippet: scrub the secret, then re-read the slot.
    b.movi(19, 0);
    b.load(21, 20, 0, 8);            // slow: store address dependency
    b.store(21, 0, 19, 1);           // [kStaleAddr] = 0, address late
    b.movi(22, static_cast<std::int64_t>(kStaleAddr));
    b.load(23, 22, 0, 1);            // (1) bypasses the store -> stale
    emitCacheTransmit(b, 23);        // (2) transmit before the squash
    b.fence();

    // (3) recover.
    emitCacheRecoverLoop(b);
    b.halt();
    return b.build();
}

void
SpectreSsb::declareSecrets(SecretMap &secrets) const
{
    // The secret lives in the stale (to-be-scrubbed) store slot, not
    // the shared victim-array location.
    secrets.addMemRange(kStaleAddr, 1, "stale-store-slot");
}

} // namespace nda
