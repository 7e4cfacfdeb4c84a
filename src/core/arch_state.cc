#include "core/arch_state.hh"

#include "dift/taint_engine.hh"
#include "isa/program.hh"

namespace nda {

void
ArchState::reset(const Program &prog, unsigned tid)
{
    *this = ArchState{};
    for (const DataSegment &seg : prog.data) {
        if (tid != 0)
            break; // memory is shared: thread 0's state holds it
        mem.writeBytes(seg.base, seg.bytes.data(), seg.bytes.size());
        mem.setPerm(seg.base, seg.bytes.size(), seg.perm);
    }
    for (int i = 0; i < kNumArchRegs; ++i)
        regs[i] = prog.initialRegs[i];
    for (int i = 0; i < kNumMsrRegs; ++i)
        msrs[i] = prog.initialMsrs[i];
    pc = tid == 0 || prog.smtEntry == ~Addr{0} ? prog.entry
                                               : prog.smtEntry;
}

void
ArchState::captureTaint(const TaintEngine &dift)
{
    hasTaint = true;
    for (int r = 0; r < kNumArchRegs; ++r)
        regTaint[r] = dift.archRegTaint(static_cast<RegId>(r));
    for (int i = 0; i < kNumMsrRegs; ++i)
        msrTaint[i] = dift.msrTaint(static_cast<unsigned>(i));
    memTaint = dift.memTaintMap();
}

void
ArchState::applyTaint(TaintEngine &dift) const
{
    if (!hasTaint)
        return;
    for (int r = 0; r < kNumArchRegs; ++r)
        dift.setArchRegTaint(static_cast<RegId>(r), regTaint[r]);
    for (int i = 0; i < kNumMsrRegs; ++i)
        dift.setMsrTaint(static_cast<unsigned>(i), msrTaint[i]);
    dift.setMemTaintMap(memTaint);
}

} // namespace nda
