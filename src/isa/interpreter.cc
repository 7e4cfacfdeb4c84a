#include "isa/interpreter.hh"

#include <bit>
#include <cstring>

#include "branch/predictor_unit.hh"
#include "common/log.hh"
#include "dift/taint_engine.hh"
#include "mem/hierarchy.hh"

namespace nda {

namespace {

/**
 * Little-endian scalar load from a resident page (fast-path only; the
 * caller guarantees `size` bytes fit in the page). Sizes outside
 * {1,2,4,8} take the byte loop, matching MemoryMap::read exactly.
 */
inline RegVal
loadScalarLe(const std::uint8_t *p, unsigned size)
{
    if constexpr (std::endian::native == std::endian::little) {
        switch (size) {
          case 1:
            return *p;
          case 2: {
            std::uint16_t v;
            std::memcpy(&v, p, 2);
            return v;
          }
          case 4: {
            std::uint32_t v;
            std::memcpy(&v, p, 4);
            return v;
          }
          case 8: {
            std::uint64_t v;
            std::memcpy(&v, p, 8);
            return v;
          }
          default:
            break;
        }
    }
    RegVal v = 0;
    for (unsigned i = 0; i < size; ++i)
        v |= static_cast<RegVal>(p[i]) << (8 * i);
    return v;
}

/** Little-endian scalar store into a resident page (fast-path only). */
inline void
storeScalarLe(std::uint8_t *p, RegVal value, unsigned size)
{
    if constexpr (std::endian::native == std::endian::little) {
        switch (size) {
          case 1:
            *p = static_cast<std::uint8_t>(value);
            return;
          case 2: {
            const auto v = static_cast<std::uint16_t>(value);
            std::memcpy(p, &v, 2);
            return;
          }
          case 4: {
            const auto v = static_cast<std::uint32_t>(value);
            std::memcpy(p, &v, 4);
            return;
          }
          case 8:
            std::memcpy(p, &value, 8);
            return;
          default:
            break;
        }
    }
    for (unsigned i = 0; i < size; ++i)
        p[i] = static_cast<std::uint8_t>(value >> (8 * i));
}

} // namespace

RegVal
evalAlu(Opcode op, RegVal a, RegVal b, std::int64_t imm)
{
    const auto uimm = static_cast<RegVal>(imm);
    switch (op) {
      case Opcode::kMovImm:
        return uimm;
      case Opcode::kMov:
        return a;
      case Opcode::kAdd:
        return a + b;
      case Opcode::kSub:
        return a - b;
      case Opcode::kAnd:
        return a & b;
      case Opcode::kOr:
        return a | b;
      case Opcode::kXor:
        return a ^ b;
      case Opcode::kShl:
        return a << (b & 63);
      case Opcode::kShr:
        return a >> (b & 63);
      case Opcode::kMul:
        return a * b;
      case Opcode::kDiv:
        return b == 0 ? 0 : a / b;
      case Opcode::kAddImm:
        return a + uimm;
      case Opcode::kSubImm:
        return a - uimm;
      case Opcode::kAndImm:
        return a & uimm;
      case Opcode::kOrImm:
        return a | uimm;
      case Opcode::kXorImm:
        return a ^ uimm;
      case Opcode::kShlImm:
        return a << (uimm & 63);
      case Opcode::kShrImm:
        return a >> (uimm & 63);
      case Opcode::kMulImm:
        return a * uimm;
      case Opcode::kCmpEq:
        return a == b ? 1 : 0;
      case Opcode::kCmpLt:
        return static_cast<std::int64_t>(a) < static_cast<std::int64_t>(b)
                   ? 1 : 0;
      case Opcode::kCmpLtu:
        return a < b ? 1 : 0;
      default:
        NDA_PANIC("evalAlu called on non-ALU opcode %s",
                  opName(op).data());
    }
}

bool
evalCondBranch(Opcode op, RegVal a, RegVal b)
{
    switch (op) {
      case Opcode::kBeq:
        return a == b;
      case Opcode::kBne:
        return a != b;
      case Opcode::kBlt:
        return static_cast<std::int64_t>(a) < static_cast<std::int64_t>(b);
      case Opcode::kBge:
        return static_cast<std::int64_t>(a) >= static_cast<std::int64_t>(b);
      case Opcode::kBltu:
        return a < b;
      case Opcode::kBgeu:
        return a >= b;
      default:
        NDA_PANIC("evalCondBranch on non-branch opcode %s",
                  opName(op).data());
    }
}

Addr
evalNextPc(const MicroOp &uop, Addr pc, RegVal a, RegVal b)
{
    const OpTraits &t = uop.traits();
    if (!t.isBranch)
        return pc + 1;
    if (t.isIndirect)
        return static_cast<Addr>(a);
    if (t.isCondBranch) {
        return evalCondBranch(uop.op, a, b) ? static_cast<Addr>(uop.imm)
                                            : pc + 1;
    }
    return static_cast<Addr>(uop.imm); // direct jmp / call
}

Interpreter::Interpreter(Program prog)
    : prog_(std::move(prog)), pre_(prog_)
{
    st_.reset(prog_);
}

Interpreter::Interpreter(Program prog, const ArchState &start)
    : prog_(std::move(prog)), pre_(prog_), st_(start)
{
}

void
Interpreter::attachDift(TaintEngine *engine)
{
    dift_ = engine;
    if (dift_)
        st_.applyTaint(*dift_);
}

ArchState
Interpreter::save() const
{
    ArchState snap = st_;
    if (dift_)
        snap.captureTaint(*dift_);
    return snap;
}

void
Interpreter::restore(const ArchState &snap)
{
    st_ = snap;
    if (dift_)
        snap.applyTaint(*dift_);
}

StepResult
Interpreter::step()
{
    if (st_.halted)
        return StepResult::kHalted;
    if (!prog_.validPc(st_.pc)) {
        st_.halted = true;
        return StepResult::kOutOfRange;
    }

    // Functional i-cache warming: the timing front ends access the
    // i-cache once per fetched line, so warm on line crossings only.
    if (warmHier_) {
        const Addr fetch_addr = pcToFetchAddr(st_.pc);
        const Addr line = fetch_addr / kLineSize;
        if (line != st_.lastFetchLine) {
            warmHier_->instAccess(fetch_addr);
            st_.lastFetchLine = line;
            ++warmWork_.iTouches;
        }
    }

    const MicroOp &uop = prog_.at(st_.pc);
    const OpTraits &t = uop.traits();
    const RegVal a = t.readsRs1 ? st_.regs[uop.rs1] : 0;
    const RegVal b = t.readsRs2 ? st_.regs[uop.rs2] : 0;
    ++st_.instCount;

    auto raise_fault = [&]() -> StepResult {
        ++st_.faultCount;
        if (prog_.faultHandler == ~Addr{0}) {
            st_.halted = true;
            return StepResult::kFaulted;
        }
        st_.pc = prog_.faultHandler;
        return StepResult::kFaulted;
    };

    switch (uop.op) {
      case Opcode::kNop:
      case Opcode::kFence:
      case Opcode::kSpecOff:
      case Opcode::kSpecOn:
        break;
      case Opcode::kClflush:
        if (warmHier_)
            warmHier_->flushLine(a + static_cast<Addr>(uop.imm));
        break;
      case Opcode::kPrefetch:
        if (warmHier_) {
            warmHier_->dataAccess(a + static_cast<Addr>(uop.imm));
            ++warmWork_.dTouches;
        }
        break;
      case Opcode::kHalt:
        st_.halted = true;
        return StepResult::kHalted;
      case Opcode::kLoad: {
        const Addr addr = a + static_cast<Addr>(uop.imm);
        if (!st_.mem.accessAllowed(addr, uop.size, CpuMode::kUser))
            return raise_fault();
        if (warmHier_) {
            warmHier_->dataAccess(addr);
            ++warmWork_.dTouches;
        }
        st_.regs[uop.rd] = st_.mem.read(addr, uop.size);
        if (dift_)
            dift_->archLoad(uop.rd, uop.rs1, addr, uop.size, st_.pc);
        break;
      }
      case Opcode::kStore: {
        const Addr addr = a + static_cast<Addr>(uop.imm);
        if (!st_.mem.accessAllowed(addr, uop.size, CpuMode::kUser))
            return raise_fault();
        if (warmHier_) {
            warmHier_->dataAccess(addr);
            ++warmWork_.dTouches;
        }
        st_.mem.write(addr, b, uop.size);
        if (dift_)
            dift_->archStore(addr, uop.size, uop.rs2);
        break;
      }
      case Opcode::kRdMsr: {
        // Out-of-range MSR indices fault like privileged ones: the
        // short-circuit keeps the mask shift defined (idx < 8 < 32)
        // and the msrs[] access in bounds.
        const unsigned idx = static_cast<unsigned>(uop.imm);
        if (idx >= static_cast<unsigned>(kNumMsrRegs) ||
            (prog_.privilegedMsrMask & (1u << idx)))
            return raise_fault();
        st_.regs[uop.rd] = st_.msrs[idx];
        if (dift_)
            dift_->archRdMsr(uop.rd, idx, st_.pc);
        break;
      }
      case Opcode::kWrMsr: {
        const unsigned idx = static_cast<unsigned>(uop.imm);
        if (idx >= static_cast<unsigned>(kNumMsrRegs) ||
            (prog_.privilegedMsrMask & (1u << idx)))
            return raise_fault();
        st_.msrs[idx] = a;
        if (dift_)
            dift_->archWrMsr(idx, uop.rs1);
        break;
      }
      case Opcode::kRdTsc:
        st_.regs[uop.rd] = tscValue();
        if (dift_)
            dift_->setArchRegTaint(uop.rd, 0);
        break;
      default:
        if (t.isBranch) {
            const Addr actual = evalNextPc(uop, st_.pc, a, b);
            if (warmBp_) {
                const bool taken =
                    t.isCondBranch ? evalCondBranch(uop.op, a, b) : true;
                warmBp_->warmResolved(uop, st_.pc, taken, actual);
                ++warmWork_.bpTrains;
            }
            if (t.hasDest) {
                st_.regs[uop.rd] = st_.pc + 1; // link value (call/callr)
                if (dift_)
                    dift_->setArchRegTaint(uop.rd, 0);
            }
            st_.pc = actual;
            return StepResult::kOk;
        }
        st_.regs[uop.rd] = evalAlu(uop.op, a, b, uop.imm);
        if (dift_)
            dift_->archAlu(uop);
        break;
    }

    st_.pc = st_.pc + 1;
    return StepResult::kOk;
}

#if NDASIM_THREADED_DISPATCH

/**
 * The predecoded threaded-code hot loop.
 *
 * Dispatch is one computed goto per instruction through a table
 * indexed by PredecodedOp::handler; the per-step budget check is the
 * only test between handlers (halted/validPc checks are gone: running
 * off the program lands on the sentinel handler, which halts lazily
 * exactly like step()'s kOutOfRange path). `remaining` counts down so
 * instCount is materialized only at exit; `pc` and the warming line
 * tracker live in locals for the same reason.
 *
 * Loads and stores go through a one-entry last-page translation cache:
 * {page base, byte pointer (null while the page is not resident), is
 * kernel}. The permission check folds into the cached kernel flag.
 * Pointer stability of std::unordered_map values makes the cached
 * pointer safe across unrelated insertions; a slow-path (page
 * crossing) store can allocate pages behind the cache's back, so it
 * invalidates the entry. The fast path never allocates on loads,
 * preserving MemoryMap's resident-page-set bit-identity contract.
 */
template <bool Warm, bool HasDift>
std::uint64_t
Interpreter::runImpl(std::uint64_t max_insts)
{
    ArchState &st = st_;
    if (st.halted || max_insts == 0)
        return 0;

    static const void *const jt[] = {
        &&h_nop,      // kNop
        &&h_halt,     // kHalt
        &&h_movimm,   // kMovImm
        &&h_mov,      // kMov
        &&h_add,      // kAdd
        &&h_sub,      // kSub
        &&h_and,      // kAnd
        &&h_or,       // kOr
        &&h_xor,      // kXor
        &&h_shl,      // kShl
        &&h_shr,      // kShr
        &&h_mul,      // kMul
        &&h_div,      // kDiv
        &&h_addimm,   // kAddImm
        &&h_subimm,   // kSubImm
        &&h_andimm,   // kAndImm
        &&h_orimm,    // kOrImm
        &&h_xorimm,   // kXorImm
        &&h_shlimm,   // kShlImm
        &&h_shrimm,   // kShrImm
        &&h_mulimm,   // kMulImm
        &&h_cmpeq,    // kCmpEq
        &&h_cmplt,    // kCmpLt
        &&h_cmpltu,   // kCmpLtu
        &&h_load,     // kLoad
        &&h_store,    // kStore
        &&h_clflush,  // kClflush
        &&h_prefetch, // kPrefetch
        &&h_rdmsr,    // kRdMsr
        &&h_wrmsr,    // kWrMsr
        &&h_rdtsc,    // kRdTsc
        &&h_nop,      // kFence (architecturally a nop)
        &&h_nop,      // kSpecOff
        &&h_nop,      // kSpecOn
        &&h_jmp,      // kJmp
        &&h_call,     // kCall
        &&h_beq,      // kBeq
        &&h_bne,      // kBne
        &&h_blt,      // kBlt
        &&h_bge,      // kBge
        &&h_bltu,     // kBltu
        &&h_bgeu,     // kBgeu
        &&h_jmpreg,   // kJmpReg
        &&h_callreg,  // kCallReg
        &&h_ret,      // kRet
        &&h_oob,      // sentinel (kOutOfRangeHandler)
    };
    static_assert(sizeof(jt) / sizeof(jt[0]) ==
                  static_cast<std::size_t>(Opcode::kNumOpcodes) + 1);

    const PredecodedOp *const ops = pre_.ops();
    const std::size_t psize = pre_.size();
    RegVal *const regs = st.regs;
    MemHierarchy *const hier = warmHier_;
    PredictorUnit *const bp = warmBp_;
    TaintEngine *const dift = dift_;
    const std::uint8_t priv_mask = prog_.privilegedMsrMask;
    (void)hier;
    (void)bp;
    (void)dift;
    (void)priv_mask;

    std::uint64_t remaining = max_insts;
    const std::uint64_t inst0 = st.instCount;
    Addr pc = st.pc;
    Addr last_line = st.lastFetchLine;

    // One-entry data-page translation cache (see the function comment).
    Addr tlb_base = ~Addr{0};
    std::uint8_t *tlb_bytes = nullptr;
    bool tlb_kernel = false;

    // Predictor warming for one resolved branch, as in step().
    const auto warm_branch = [&](Addr br_pc, bool taken, Addr actual) {
        bp->warmResolved(prog_.code[br_pc], br_pc, taken, actual);
        ++warmWork_.bpTrains;
    };
    (void)warm_branch;

    const PredecodedOp *ip = ops + (pc < psize ? pc : psize);

#define NDA_DISPATCH()                                                  \
    do {                                                                \
        if (remaining == 0)                                             \
            goto loop_exit;                                             \
        goto *jt[ip->handler];                                          \
    } while (0)

    // Per-instruction prologue: functional i-warming (one compare —
    // the line is predecoded) and budget debit. Runs for every real
    // op, never for the sentinel, matching step()'s ordering (warming
    // precedes the instCount increment and all side effects).
#define NDA_PROLOGUE()                                                  \
    do {                                                                \
        if constexpr (Warm) {                                           \
            if (ip->fetchLine != last_line) {                           \
                hier->instAccess(ip->fetchAddr);                        \
                last_line = ip->fetchLine;                              \
                ++warmWork_.iTouches;                                   \
            }                                                           \
        }                                                               \
        --remaining;                                                    \
    } while (0)

#define NDA_NEXT_SEQ()                                                  \
    do {                                                                \
        ++pc;                                                           \
        ++ip;                                                           \
        NDA_DISPATCH();                                                 \
    } while (0)

    // step()'s raise_fault: no handler halts at the faulting pc; a
    // handler redirects (lazily halting later if it is out of range).
#define NDA_RAISE_FAULT()                                               \
    do {                                                                \
        ++st.faultCount;                                                \
        if (!pre_.hasFaultHandler()) {                                  \
            st.halted = true;                                           \
            goto loop_exit;                                             \
        }                                                               \
        pc = pre_.faultPc();                                            \
        ip = ops + pre_.faultIdx();                                     \
        NDA_DISPATCH();                                                 \
    } while (0)

#define NDA_ALU_EPILOGUE()                                              \
    do {                                                                \
        if constexpr (HasDift)                                          \
            dift->archAlu(prog_.code[pc]);                              \
    } while (0)

    // Two-source ALU op.
#define NDA_ALU2(label, expr)                                           \
  label: {                                                              \
        NDA_PROLOGUE();                                                 \
        const RegVal va = regs[ip->rs1];                                \
        const RegVal vb = regs[ip->rs2];                                \
        regs[ip->rd] = (expr);                                          \
        NDA_ALU_EPILOGUE();                                             \
        NDA_NEXT_SEQ();                                                 \
    }

    // rs1 ⊕ imm ALU op (also kMov, which ignores the immediate).
#define NDA_ALU1(label, expr)                                           \
  label: {                                                              \
        NDA_PROLOGUE();                                                 \
        const RegVal va = regs[ip->rs1];                                \
        regs[ip->rd] = (expr);                                          \
        NDA_ALU_EPILOGUE();                                             \
        NDA_NEXT_SEQ();                                                 \
    }

    // Conditional direct branch; the taken-target dispatch index is
    // predecoded (clamped to the sentinel), the architectural pc keeps
    // the raw target so lazy out-of-range halting matches step().
#define NDA_COND_BRANCH(label, test)                                    \
  label: {                                                              \
        NDA_PROLOGUE();                                                 \
        const RegVal va = regs[ip->rs1];                                \
        const RegVal vb = regs[ip->rs2];                                \
        const bool taken = (test);                                      \
        const Addr target =                                             \
            taken ? static_cast<Addr>(ip->uimm) : pc + 1;               \
        if constexpr (Warm)                                             \
            warm_branch(pc, taken, target);                             \
        if (taken) {                                                    \
            const std::uint32_t ti = ip->targetIdx;                     \
            pc = target;                                                \
            ip = ops + ti;                                              \
        } else {                                                        \
            ++pc;                                                       \
            ++ip;                                                       \
        }                                                               \
        NDA_DISPATCH();                                                 \
    }

    NDA_DISPATCH();

  h_nop:
    NDA_PROLOGUE();
    NDA_NEXT_SEQ();

  h_halt:
    NDA_PROLOGUE();
    st.halted = true;
    goto loop_exit;

  h_movimm:
    NDA_PROLOGUE();
    regs[ip->rd] = ip->uimm;
    NDA_ALU_EPILOGUE();
    NDA_NEXT_SEQ();

    NDA_ALU1(h_mov, va)
    NDA_ALU2(h_add, va + vb)
    NDA_ALU2(h_sub, va - vb)
    NDA_ALU2(h_and, va &vb)
    NDA_ALU2(h_or, va | vb)
    NDA_ALU2(h_xor, va ^ vb)
    NDA_ALU2(h_shl, va << (vb & 63))
    NDA_ALU2(h_shr, va >> (vb & 63))
    NDA_ALU2(h_mul, va *vb)
    NDA_ALU2(h_div, vb == 0 ? 0 : va / vb)
    NDA_ALU1(h_addimm, va + ip->uimm)
    NDA_ALU1(h_subimm, va - ip->uimm)
    NDA_ALU1(h_andimm, va &ip->uimm)
    NDA_ALU1(h_orimm, va | ip->uimm)
    NDA_ALU1(h_xorimm, va ^ ip->uimm)
    NDA_ALU1(h_shlimm, va << (ip->uimm & 63))
    NDA_ALU1(h_shrimm, va >> (ip->uimm & 63))
    NDA_ALU1(h_mulimm, va *ip->uimm)
    NDA_ALU2(h_cmpeq, va == vb ? 1 : 0)
    NDA_ALU2(h_cmplt,
             static_cast<std::int64_t>(va) < static_cast<std::int64_t>(vb)
                 ? 1 : 0)
    NDA_ALU2(h_cmpltu, va < vb ? 1 : 0)

  h_load: {
        NDA_PROLOGUE();
        const Addr addr = regs[ip->rs1] + ip->uimm;
        const unsigned sz = ip->size;
        const Addr off = addr & (MemoryMap::kPageBytes - 1);
        RegVal value;
        if (off + sz <= MemoryMap::kPageBytes) {
            const Addr base = addr - off;
            if (base != tlb_base) {
                const MemoryMap::PageView v = st.mem.viewPage(base);
                tlb_base = base;
                tlb_bytes = v.bytes;
                tlb_kernel = v.kernel;
            }
            if (tlb_kernel)
                NDA_RAISE_FAULT();
            if constexpr (Warm) {
                hier->dataAccess(addr);
                ++warmWork_.dTouches;
            }
            value = tlb_bytes ? loadScalarLe(tlb_bytes + off, sz) : 0;
        } else {
            if (!st.mem.accessAllowed(addr, sz, CpuMode::kUser))
                NDA_RAISE_FAULT();
            if constexpr (Warm) {
                hier->dataAccess(addr);
                ++warmWork_.dTouches;
            }
            value = st.mem.read(addr, sz);
        }
        regs[ip->rd] = value;
        if constexpr (HasDift)
            dift->archLoad(ip->rd, ip->rs1, addr, sz, pc);
        NDA_NEXT_SEQ();
    }

  h_store: {
        NDA_PROLOGUE();
        const Addr addr = regs[ip->rs1] + ip->uimm;
        const unsigned sz = ip->size;
        const Addr off = addr & (MemoryMap::kPageBytes - 1);
        if (off + sz <= MemoryMap::kPageBytes) {
            const Addr base = addr - off;
            if (base != tlb_base) {
                const MemoryMap::PageView v = st.mem.viewPage(base);
                tlb_base = base;
                tlb_bytes = v.bytes;
                tlb_kernel = v.kernel;
            }
            if (tlb_kernel)
                NDA_RAISE_FAULT();
            if (tlb_bytes == nullptr)
                tlb_bytes = st.mem.pageDataForWrite(base);
            if constexpr (Warm) {
                hier->dataAccess(addr);
                ++warmWork_.dTouches;
            }
            storeScalarLe(tlb_bytes + off, regs[ip->rs2], sz);
        } else {
            if (!st.mem.accessAllowed(addr, sz, CpuMode::kUser))
                NDA_RAISE_FAULT();
            if constexpr (Warm) {
                hier->dataAccess(addr);
                ++warmWork_.dTouches;
            }
            st.mem.write(addr, regs[ip->rs2], sz);
            // The write may have allocated pages; drop the cached
            // translation so a stale "not resident" entry cannot
            // shadow them.
            tlb_base = ~Addr{0};
            tlb_bytes = nullptr;
            tlb_kernel = false;
        }
        if constexpr (HasDift)
            dift->archStore(addr, sz, ip->rs2);
        NDA_NEXT_SEQ();
    }

  h_clflush:
    NDA_PROLOGUE();
    if constexpr (Warm)
        hier->flushLine(regs[ip->rs1] + ip->uimm);
    NDA_NEXT_SEQ();

  h_prefetch:
    NDA_PROLOGUE();
    if constexpr (Warm) {
        hier->dataAccess(regs[ip->rs1] + ip->uimm);
        ++warmWork_.dTouches;
    }
    NDA_NEXT_SEQ();

  h_rdmsr: {
        NDA_PROLOGUE();
        const unsigned idx = static_cast<unsigned>(ip->uimm);
        if (idx >= static_cast<unsigned>(kNumMsrRegs) ||
            (priv_mask & (1u << idx)))
            NDA_RAISE_FAULT();
        regs[ip->rd] = st.msrs[idx];
        if constexpr (HasDift)
            dift->archRdMsr(ip->rd, idx, pc);
        NDA_NEXT_SEQ();
    }

  h_wrmsr: {
        NDA_PROLOGUE();
        const unsigned idx = static_cast<unsigned>(ip->uimm);
        if (idx >= static_cast<unsigned>(kNumMsrRegs) ||
            (priv_mask & (1u << idx)))
            NDA_RAISE_FAULT();
        st.msrs[idx] = regs[ip->rs1];
        if constexpr (HasDift)
            dift->archWrMsr(idx, ip->rs1);
        NDA_NEXT_SEQ();
    }

  h_rdtsc:
    NDA_PROLOGUE();
    // tscValue() == instCount *after* this instruction's increment.
    regs[ip->rd] = inst0 + (max_insts - remaining);
    if constexpr (HasDift)
        dift->setArchRegTaint(ip->rd, 0);
    NDA_NEXT_SEQ();

  h_jmp: {
        NDA_PROLOGUE();
        const Addr target = static_cast<Addr>(ip->uimm);
        if constexpr (Warm)
            warm_branch(pc, true, target);
        const std::uint32_t ti = ip->targetIdx;
        pc = target;
        ip = ops + ti;
        NDA_DISPATCH();
    }

  h_call: {
        NDA_PROLOGUE();
        const Addr target = static_cast<Addr>(ip->uimm);
        if constexpr (Warm)
            warm_branch(pc, true, target);
        regs[ip->rd] = pc + 1; // link value
        if constexpr (HasDift)
            dift->setArchRegTaint(ip->rd, 0);
        const std::uint32_t ti = ip->targetIdx;
        pc = target;
        ip = ops + ti;
        NDA_DISPATCH();
    }

    NDA_COND_BRANCH(h_beq, va == vb)
    NDA_COND_BRANCH(h_bne, va != vb)
    NDA_COND_BRANCH(
        h_blt,
        static_cast<std::int64_t>(va) < static_cast<std::int64_t>(vb))
    NDA_COND_BRANCH(
        h_bge,
        static_cast<std::int64_t>(va) >= static_cast<std::int64_t>(vb))
    NDA_COND_BRANCH(h_bltu, va < vb)
    NDA_COND_BRANCH(h_bgeu, va >= vb)

  h_jmpreg: {
        NDA_PROLOGUE();
        const Addr target = regs[ip->rs1];
        if constexpr (Warm)
            warm_branch(pc, true, target);
        pc = target;
        ip = ops + (target < psize ? target : psize);
        NDA_DISPATCH();
    }

  h_callreg: {
        NDA_PROLOGUE();
        // Read the target before writing rd: callr with rd == rs1
        // must use the old value (LinkRegisterSemantics test).
        const Addr target = regs[ip->rs1];
        if constexpr (Warm)
            warm_branch(pc, true, target);
        regs[ip->rd] = pc + 1;
        if constexpr (HasDift)
            dift->setArchRegTaint(ip->rd, 0);
        pc = target;
        ip = ops + (target < psize ? target : psize);
        NDA_DISPATCH();
    }

  h_ret: {
        NDA_PROLOGUE();
        const Addr target = regs[ip->rs1];
        if constexpr (Warm)
            warm_branch(pc, true, target);
        pc = target;
        ip = ops + (target < psize ? target : psize);
        NDA_DISPATCH();
    }

  h_oob:
    // pc left the program: halt lazily like step()'s kOutOfRange —
    // no budget debit, no warming, pc keeps the raw value.
    st.halted = true;
    goto loop_exit;

  loop_exit:
    st.pc = pc;
    st.lastFetchLine = last_line;
    const std::uint64_t executed = max_insts - remaining;
    st.instCount = inst0 + executed;
    return executed;

#undef NDA_DISPATCH
#undef NDA_PROLOGUE
#undef NDA_NEXT_SEQ
#undef NDA_RAISE_FAULT
#undef NDA_ALU_EPILOGUE
#undef NDA_ALU2
#undef NDA_ALU1
#undef NDA_COND_BRANCH
}

#endif // NDASIM_THREADED_DISPATCH

std::uint64_t
Interpreter::run(std::uint64_t max_insts)
{
#if NDASIM_THREADED_DISPATCH
    switch ((warmHier_ ? 2 : 0) | (dift_ ? 1 : 0)) {
      case 0: return runImpl<false, false>(max_insts);
      case 1: return runImpl<false, true>(max_insts);
      case 2: return runImpl<true, false>(max_insts);
      default: return runImpl<true, true>(max_insts);
    }
#else
    // Portable fallback: the oracle loop (bit-identical by definition).
    const std::uint64_t start = st_.instCount;
    while (!st_.halted && st_.instCount - start < max_insts)
        step();
    return st_.instCount - start;
#endif
}

std::uint64_t
Interpreter::runTo(std::uint64_t target_inst_count)
{
    if (st_.instCount >= target_inst_count)
        return 0;
    return run(target_inst_count - st_.instCount);
}

} // namespace nda
