/**
 * @file
 * The architectural state every execution engine agrees on: register
 * file, MSRs, PC, memory image, retirement counts, and (when a DIFT
 * engine is attached) the architectural taint that travels with them.
 *
 * The interpreter *runs on* an ArchState directly; the timing cores
 * (`InOrderCore`, `OooCore`) are constructed in one and save into one
 * at window boundaries (CoreBase::saveCheckpoint / restoreCheckpoint).
 * An engine built without a start state begins at reset(). Because
 * NDA only changes timing, an ArchState captured from any engine at a
 * commit boundary is a valid starting point for any other — this is
 * what makes SMARTS-style checkpoint reuse (snapshot.hh) sound.
 */

#ifndef NDASIM_CORE_ARCH_STATE_HH
#define NDASIM_CORE_ARCH_STATE_HH

#include <cstdint>
#include <unordered_map>

#include "common/types.hh"
#include "mem/memory_map.hh"

namespace nda {

struct Program;
class TaintEngine;

/**
 * Complete architectural machine state at a commit boundary.
 *
 * Field order is hot-loop-aware: the scalars the interpreter's
 * threaded run loop reads/writes every exit (pc, counters, fetch-line
 * tracker) sit directly after the register file so they share its
 * cache lines, ahead of the cold MSR file and the map-backed fields.
 */
struct ArchState {
    RegVal regs[kNumArchRegs] = {};
    Addr pc = 0;
    /** Instructions retired since the program's entry point. */
    std::uint64_t instCount = 0;
    std::uint64_t faultCount = 0;
    /**
     * Last i-cache line the (warming) front end fetched from, so a
     * restored interpreter resumes its line-crossing detection — and
     * hence its functional-warming i-cache accesses — bit-exactly.
     */
    Addr lastFetchLine = ~Addr{0};
    bool halted = false;
    RegVal msrs[kNumMsrRegs] = {};
    MemoryMap mem;

    // --- DIFT architectural taint (valid iff hasTaint) ------------------
    bool hasTaint = false;
    TaintWord regTaint[kNumArchRegs] = {};
    TaintWord msrTaint[kNumMsrRegs] = {};
    std::unordered_map<Addr, TaintWord> memTaint; ///< per byte, sparse

    /** The program's cold start for hardware thread `tid`: initial
     *  regs/MSRs, the entry PC (the SMT entry, if any, for tid > 0),
     *  and for thread 0 the data segments. Clears taint. */
    void reset(const Program &prog, unsigned tid = 0);

    /** Copy the engine's architectural taint in; sets hasTaint. */
    void captureTaint(const TaintEngine &dift);

    /** Write the captured architectural taint back into an engine
     *  (no-op unless hasTaint). */
    void applyTaint(TaintEngine &dift) const;

    bool operator==(const ArchState &) const = default;
};

} // namespace nda

#endif // NDASIM_CORE_ARCH_STATE_HH
