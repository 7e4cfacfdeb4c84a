/**
 * @file
 * The speculative-execution-attack PoC suite (paper §3, Table 1):
 *
 *  Control-steering attacks (access phase steers victim control flow):
 *   - SpectreV1Cache : bounds-check bypass, d-cache channel (Listing 1)
 *   - SpectreV1Btb   : bounds-check bypass, BTB channel (Listing 3)
 *   - SpectreV11     : speculative buffer overflow (Spectre v1.1)
 *   - SpectreV2      : indirect-branch target injection (BTB aliasing)
 *   - Ret2Spec       : return-address mis-steering via the RAS
 *   - SpectreSsb     : Spectre v4, speculative store bypass
 *   - SpectreGpr     : hypothetical GPR-resident-secret leak (paper §4.2)
 *
 *  Chosen-code attacks (attacker-authored code, implementation flaw):
 *   - Meltdown       : user-mode read of kernel memory (Listing 2)
 *   - LazyFp         : privileged-special-register read (LazyFP / v3a)
 *
 *  Cross-thread attacks (co-resident SMT attacker, per-thread NDA):
 *   - SmotherPort    : SMoTherSpectre-style execution-port contention
 *   - MshrContention : shared-MSHR occupancy back-pressure timing
 *
 * Each class hands AttackBase its AttackSpec record; which profiles
 * block it follows from the record's AttackClass via blocks().
 */

#ifndef NDASIM_ATTACKS_ATTACKS_HH
#define NDASIM_ATTACKS_ATTACKS_HH

#include "attacks/attack_base.hh"

namespace nda {

class SpectreV1Cache : public AttackBase
{
  public:
    SpectreV1Cache()
        : AttackBase({"spectre-v1-cache",
                      "bounds check bypass, d-cache covert channel",
                      {Trigger::kBranch, Origin::kMemory, Channel::kDCache}})
    {}
    Program build(std::uint8_t secret) const override;
};

class SpectreV1Btb : public AttackBase
{
  public:
    SpectreV1Btb()
        : AttackBase({"spectre-v1-btb",
                      "bounds check bypass, BTB covert channel (paper SS3)",
                      {Trigger::kBranch, Origin::kMemory, Channel::kBtb},
                      /*crossThread=*/false, /*signalThreshold=*/5.0})
    {}
    Program build(std::uint8_t secret) const override;
};

class SpectreV11 : public AttackBase
{
  public:
    SpectreV11()
        : AttackBase({"spectre-v1.1",
                      "speculative buffer overflow steers via SQ forwarding",
                      {Trigger::kBranch, Origin::kMemory, Channel::kDCache}})
    {}
    Program build(std::uint8_t secret) const override;
};

class SpectreV2 : public AttackBase
{
  public:
    SpectreV2()
        : AttackBase({"spectre-v2",
                      "indirect branch target injection via BTB aliasing",
                      {Trigger::kBranch, Origin::kMemory, Channel::kDCache}})
    {}
    Program build(std::uint8_t secret) const override;
    void adjustConfig(SimConfig &cfg) const override;
};

class Ret2Spec : public AttackBase
{
  public:
    Ret2Spec()
        : AttackBase({"ret2spec",
                      "return-address mis-steering via RAS",
                      {Trigger::kBranch, Origin::kMemory, Channel::kDCache}})
    {}
    Program build(std::uint8_t secret) const override;
};

class SpectreSsb : public AttackBase
{
  public:
    SpectreSsb()
        : AttackBase({"spectre-v4-ssb",
                      "speculative store bypass reads stale secret",
                      {Trigger::kStoreBypass, Origin::kMemory,
                       Channel::kDCache}})
    {}
    Program build(std::uint8_t secret) const override;
    void declareSecrets(SecretMap &secrets) const override;
};

class SpectreGpr : public AttackBase
{
  public:
    SpectreGpr()
        : AttackBase({"spectre-gpr",
                      "leak of a GPR-resident secret (paper SS4.2)",
                      {Trigger::kBranch, Origin::kGpr, Channel::kDCache}})
    {}
    Program build(std::uint8_t secret) const override;
};

class Meltdown : public AttackBase
{
  public:
    Meltdown()
        : AttackBase({"meltdown",
                      "user-mode read of kernel memory (Listing 2)",
                      {Trigger::kChosenCode, Origin::kMemory,
                       Channel::kDCache}})
    {}
    Program build(std::uint8_t secret) const override;
    void declareSecrets(SecretMap &secrets) const override;
};

/**
 * SMoTherSpectre-style cross-thread attack: the victim's wrong path
 * executes a secret-bit-keyed burst of multiplies; a co-resident SMT
 * attacker times its own multiply chain through the shared (single)
 * mul/div issue port, with no cache mutation at all.
 */
class SmotherPort : public AttackBase
{
  public:
    SmotherPort()
        : AttackBase({"smother-port",
                      "cross-thread SMT execution-port contention timing",
                      {Trigger::kBranch, Origin::kMemory,
                       Channel::kPortContention},
                      /*crossThread=*/true})
    {}
    Program build(std::uint8_t secret) const override;
    void adjustConfig(SimConfig &cfg) const override;
};

/**
 * Cross-thread MSHR-occupancy attack: the victim's wrong path fires a
 * secret-bit-keyed burst of fresh-line loads that saturates the
 * shared L1D MSHR file; the co-resident attacker times its own miss,
 * which gets structurally rejected while the file is full.
 */
class MshrContention : public AttackBase
{
  public:
    MshrContention()
        : AttackBase({"smt-mshr",
                      "cross-thread shared-MSHR occupancy back-pressure",
                      {Trigger::kBranch, Origin::kMemory,
                       Channel::kMshrContention},
                      /*crossThread=*/true})
    {}
    Program build(std::uint8_t secret) const override;
    void adjustConfig(SimConfig &cfg) const override;
};

class LazyFp : public AttackBase
{
  public:
    LazyFp()
        : AttackBase({"lazyfp-v3a",
                      "privileged special-register read (LazyFP / v3a)",
                      {Trigger::kChosenCode, Origin::kSpecialReg,
                       Channel::kDCache}})
    {}
    Program build(std::uint8_t secret) const override;
    void declareSecrets(SecretMap &secrets) const override;
};

} // namespace nda

#endif // NDASIM_ATTACKS_ATTACKS_HH
