/**
 * @file
 * Workload interface and registry. SPEC CPU 2017 (paper §6.1) is
 * proprietary, so the evaluation uses 16 synthetic kernels that span
 * the same behaviour space: branch density and predictability, load
 * density, memory footprint (L1/L2/DRAM-resident), dependent-load
 * chains, and inherent ILP. Each kernel names the SPEC workload
 * family whose behaviour it substitutes (see DESIGN.md §4).
 */

#ifndef NDASIM_WORKLOADS_WORKLOAD_HH
#define NDASIM_WORKLOADS_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "isa/program.hh"

namespace nda {

/** A deterministic, seedable benchmark kernel. */
class Workload
{
  public:
    Workload(std::string name, std::string spec_analog)
        : name_(std::move(name)), specAnalog_(std::move(spec_analog))
    {
    }

    virtual ~Workload() = default;

    /** Kernel name (used in Fig 7 rows). */
    const std::string &name() const { return name_; }

    /** SPEC CPU 2017 workload family this kernel substitutes. */
    const std::string &specAnalog() const { return specAnalog_; }

    /**
     * Build the program with data derived from `seed`. Programs run
     * for a very large number of iterations; the harness bounds
     * execution by instruction count.
     */
    virtual Program build(std::uint64_t seed) const = 0;

  private:
    std::string name_;
    std::string specAnalog_;
};

class XRandom;

/** `len` deterministic pseudo-random bytes. */
std::vector<std::uint8_t> randomBytes(XRandom &rng, std::size_t len);

/** Little-endian encode 64-bit words into a byte vector. */
std::vector<std::uint8_t> packWords(const std::vector<std::uint64_t> &ws);

/** The full evaluation suite in Fig 7 row order. */
std::vector<std::unique_ptr<Workload>> makeAllWorkloads();

/** Build one workload by name; nullptr if unknown. */
std::unique_ptr<Workload> makeWorkload(const std::string &name);

// Individual factories (one per kernel family).
std::unique_ptr<Workload> makePointerChase();
std::unique_ptr<Workload> makeStream();
std::unique_ptr<Workload> makeBranchy();
std::unique_ptr<Workload> makeGameTree();
std::unique_ptr<Workload> makeCompute();
std::unique_ptr<Workload> makeHashJoin();
std::unique_ptr<Workload> makeRadixSort();
std::unique_ptr<Workload> makeCompress();
std::unique_ptr<Workload> makeStencil();
std::unique_ptr<Workload> makeTreeWalk();
std::unique_ptr<Workload> makeCrc();
std::unique_ptr<Workload> makeStrProc();
std::unique_ptr<Workload> makeMatMul();
std::unique_ptr<Workload> makeMixed();
std::unique_ptr<Workload> makeInterp();
std::unique_ptr<Workload> makeFilter();

} // namespace nda

#endif // NDASIM_WORKLOADS_WORKLOAD_HH
