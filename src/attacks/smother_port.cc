/**
 * @file
 * SMoTherSpectre-style cross-thread port-contention attack.
 *
 * Victim wrong path (behind the mistrained bounds check):
 *     secret = array[x];
 *     beacon: 4 tainted multiplies (always)
 *     if (((secret >> bit) & 1) == want) 32 more tainted multiplies
 *
 * The core has a single mul/div issue port shared by both hardware
 * threads, so while the victim's burst is in flight the co-resident
 * attacker's own multiply chain loses issue slots — a timing channel
 * through pure execution-port arbitration, with no cache mutation
 * anywhere. InvisiSpec therefore does not block it (shadow loads
 * still forward the secret to the multiplies), while NDA's
 * propagation policies and load restriction do: the secret never
 * wakes its dependents, so the burst never reaches the port.
 *
 * The beacon multiplies run on every mis-speculated call regardless
 * of the bit value, so the DIFT oracle sees a tainted op on the
 * contended port (and flags the leak) even for an all-zeros secret —
 * keeping the oracle verdict aligned with the timing decode, which
 * recovers 0x00 in that case.
 */

#include "attacks/attacks.hh"
#include "attacks/covert_channel.hh"
#include "attacks/smt_channel.hh"

namespace nda {

using namespace attack_layout;

Program
SmotherPort::build(std::uint8_t secret) const
{
    ProgramBuilder b("smother-port");
    SmtWindowPlan plan;
    plan.roundsPerBit = 2;
    plan.margin = 16;

    auto gadget = [](ProgramBuilder &pb, ProgramBuilder::Label vend) {
        for (int i = 0; i < 4; ++i)
            pb.mul(15, 14, 14);          // beacon: tainted, unconditional
        pb.shr(16, 14, 22);
        pb.andi(16, 16, 1);              // probed secret bit
        pb.cmpeq(17, 16, 23);            // == window polarity?
        pb.movi(8, 0);
        pb.beq(17, 8, vend);
        for (int i = 0; i < 56; ++i)
            pb.mul(15, 14, 14);          // burst: monopolize the port
    };

    auto probe = [](ProgramBuilder &pb, RegId acc) {
        pb.rdtsc(4);
        // Chain the operand off the rdtsc so out-of-order run-ahead
        // cannot issue the chain before the measured window opens.
        pb.andi(9, 4, 0);
        pb.add(9, 9, 3);
        for (int i = 0; i < 32; ++i)
            pb.mul(5, 9, 9);             // independent: issue-bound
        pb.rdtsc(6);
        pb.sub(5, 6, 4);
        pb.add(acc, acc, 5);
    };

    return buildSmtAttackProgram(b, secret, plan, gadget, probe);
}

void
SmotherPort::adjustConfig(SimConfig &cfg) const
{
    cfg.core.smtThreads = 2;
    cfg.core.mulDivPorts = 1;        // the contended resource
    // Asymmetric co-residency: thread 0 keeps the profile's policy,
    // the attacker on thread 1 runs unprotected.
    cfg.perThreadSecurity = true;
    cfg.security1 = SecurityConfig{};
}

} // namespace nda
