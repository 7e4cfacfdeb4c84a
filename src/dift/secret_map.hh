/**
 * @file
 * Declaration of the secrets an attack (or test) wants the DIFT
 * leakage oracle to track. Each declared secret — a byte range of
 * memory or a model-specific register — is assigned one bit of the
 * TaintWord; the TaintEngine seeds its taint state from this map.
 */

#ifndef NDASIM_DIFT_SECRET_MAP_HH
#define NDASIM_DIFT_SECRET_MAP_HH

#include <string>
#include <vector>

#include "common/types.hh"

namespace nda {

/** Registry of declared secrets; assigns taint bits. */
class SecretMap
{
  public:
    struct MemRegion {
        Addr base = 0;
        unsigned size = 0;
        unsigned bit = 0;
        std::string label;
    };

    struct MsrSecret {
        unsigned idx = 0;
        unsigned bit = 0;
        std::string label;
    };

    /** Declare a secret byte range; returns its taint bit index. */
    unsigned addMemRange(Addr base, unsigned size, std::string label);

    /** Declare a secret MSR; returns its taint bit index. */
    unsigned addMsr(unsigned idx, std::string label);

    bool empty() const { return nextBit_ == 0; }

    /** Display label of taint bit `bit` ("?" if out of range). */
    const std::string &label(unsigned bit) const;

    /** Label of the lowest set bit of `t` ("?" if t == 0). */
    const std::string &labelFor(TaintWord t) const;

    const std::vector<MemRegion> &memRegions() const { return mem_; }
    const std::vector<MsrSecret> &msrSecrets() const { return msrs_; }

  private:
    std::vector<MemRegion> mem_;
    std::vector<MsrSecret> msrs_;
    std::vector<std::string> labels_; ///< indexed by taint bit
    unsigned nextBit_ = 0;
};

} // namespace nda

#endif // NDASIM_DIFT_SECRET_MAP_HH
