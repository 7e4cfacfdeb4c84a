/**
 * @file
 * Cross-thread MSHR-occupancy attack.
 *
 * Victim wrong path (behind the mistrained bounds check):
 *     secret = array[x];
 *     p = missRegion(window, x) + (secret & 0);   // address taint only
 *     beacon: load p (always — one tainted fresh-line miss)
 *     if (((secret >> bit) & 1) == want)
 *         6 more fresh-line loads p+512 .. p+3072  // saturate the file
 *
 * With a 4-entry shared L1D MSHR file, the burst (plus the in-flight
 * bound load) saturates the file, so the co-resident attacker's own
 * fresh-line miss is structurally rejected and retries until a fill
 * frees an entry — occupancy back-pressure the attacker times. The
 * squash does not revert the occupancy (fills land orphaned), which
 * is exactly why it is a channel.
 *
 * The burst addresses carry a *dead* data dependence on the secret
 * ((secret & 0) == 0), so NDA's propagation policies block the attack
 * at the source — the address never becomes ready — without the
 * address *value* depending on the secret. InvisiSpec blocks it too:
 * shadow loads peek the hierarchy without allocating an MSHR entry.
 */

#include "attacks/attacks.hh"
#include "attacks/covert_channel.hh"
#include "attacks/smt_channel.hh"

namespace nda {

using namespace attack_layout;

Program
MshrContention::build(std::uint8_t secret) const
{
    ProgramBuilder b("smt-mshr");
    SmtWindowPlan plan;
    plan.roundsPerBit = 2;
    plan.margin = 40;

    // Fresh-line regions: window number (<<12) keeps rounds disjoint;
    // the gadget argument x (<<13) separates the in-bounds training
    // region (x = 5) from the wrong-path region (x = kSecretDelta) so
    // training never warms the lines the burst must miss on.
    b.zeroSegment(kSmtMissBase, 0x30000);
    b.zeroSegment(kSmtMissBase + (kSecretDelta << 13), 0x28000);
    // Attacker probe lines, one per window (40 windows fit easily).
    b.zeroSegment(kSmtProbeBase, 64 * 64);

    auto gadget = [](ProgramBuilder &pb, ProgramBuilder::Label vend) {
        pb.andi(15, 14, 0);              // 0, but tainted by the secret
        pb.shli(16, 21, 12);             // fresh region per window
        pb.movi(17, static_cast<std::int64_t>(kSmtMissBase));
        pb.add(16, 16, 17);
        pb.shli(17, 10, 13);             // training/attack split by x
        pb.add(16, 16, 17);
        pb.add(16, 16, 15);              // dead secret dep: NDA's target
        pb.load(15, 16, 0, 8);           // beacon miss (always)
        pb.shr(8, 14, 22);
        pb.andi(8, 8, 1);                // probed secret bit
        pb.cmpeq(17, 8, 23);             // == window polarity?
        pb.movi(8, 0);
        pb.beq(17, 8, vend);
        for (int i = 1; i <= 6; ++i)
            pb.load(15, 16, 512 * i, 8); // burst: saturate the MSHRs
    };

    auto probe = [](ProgramBuilder &pb, RegId acc) {
        pb.movi(7, static_cast<std::int64_t>(kSmtProbeBase));
        pb.shli(8, 18, 6);               // fresh probe line per window
        pb.add(7, 7, 8);
        pb.rdtsc(4);
        // Chain the address off the rdtsc so out-of-order run-ahead
        // cannot launch the miss before the measured window opens,
        // then delay a little more: if the victim's bit-check branch
        // mispredicts, the burst starts ~25 cycles late, and probing
        // too early would grab an MSHR entry before the burst fills
        // the file. Occupancy persists for a full fill latency, so a
        // late probe is strictly safer than an early one.
        pb.andi(9, 4, 0);
        for (int i = 0; i < 16; ++i)
            pb.addi(9, 9, 0);
        pb.add(7, 7, 9);
        pb.load(5, 7, 0, 8);             // rejected while the file is full
        pb.rdtsc(6);                     // serializes until the load retires
        pb.sub(5, 6, 4);
        pb.add(acc, acc, 5);
    };

    return buildSmtAttackProgram(b, secret, plan, gadget, probe);
}

void
MshrContention::adjustConfig(SimConfig &cfg) const
{
    cfg.core.smtThreads = 2;
    cfg.memory.mshrEntries = 4;      // small shared file: easy to fill
    cfg.perThreadSecurity = true;
    cfg.security1 = SecurityConfig{};
}

} // namespace nda
