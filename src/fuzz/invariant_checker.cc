#include "fuzz/invariant_checker.hh"

#include <algorithm>

#include "core/ooo_core.hh"

namespace nda {

const char *
fuzzCorruptionName(FuzzCorruption kind)
{
    switch (kind) {
      case FuzzCorruption::kNone:
        return "none";
      case FuzzCorruption::kFreeListLeak:
        return "freelist-leak";
      case FuzzCorruption::kDoubleFree:
        return "double-free";
      case FuzzCorruption::kEarlyWakeup:
        return "early-wakeup";
      case FuzzCorruption::kRenameCorrupt:
        return "rename-corrupt";
      case FuzzCorruption::kRobReorder:
        return "rob-reorder";
      case FuzzCorruption::kMshrDupPrimary:
        return "mshr-dup-primary";
      case FuzzCorruption::kMshrGhostTarget:
        return "mshr-ghost-target";
      case FuzzCorruption::kMshrOverflow:
        return "mshr-overflow";
      case FuzzCorruption::kMshrStuckFill:
        return "mshr-stuck-fill";
      case FuzzCorruption::kCrossThreadRenameBleed:
        return "smt-rename-bleed";
    }
    return "?";
}

FuzzCorruption
fuzzCorruptionFromName(const std::string &name)
{
    static constexpr FuzzCorruption kAll[] = {
        FuzzCorruption::kFreeListLeak,  FuzzCorruption::kDoubleFree,
        FuzzCorruption::kEarlyWakeup,   FuzzCorruption::kRenameCorrupt,
        FuzzCorruption::kRobReorder,    FuzzCorruption::kMshrDupPrimary,
        FuzzCorruption::kMshrGhostTarget,
        FuzzCorruption::kMshrOverflow,  FuzzCorruption::kMshrStuckFill,
        FuzzCorruption::kCrossThreadRenameBleed,
    };
    for (FuzzCorruption k : kAll) {
        if (name == fuzzCorruptionName(k))
            return k;
    }
    return FuzzCorruption::kNone;
}

const char *
invariantKindName(InvariantKind kind)
{
    switch (kind) {
      case InvariantKind::kRobOrder:
        return "rob-order";
      case InvariantKind::kBranchBookkeeping:
        return "branch-bookkeeping";
      case InvariantKind::kFreeList:
        return "free-list";
      case InvariantKind::kRenameMap:
        return "rename-map";
      case InvariantKind::kLsqOrder:
        return "lsq-order";
      case InvariantKind::kWakeupOrder:
        return "wakeup-order";
      case InvariantKind::kNdaSafety:
        return "nda-safety";
      case InvariantKind::kMshrPrimary:
        return "mshr-primary";
      case InvariantKind::kMshrTargets:
        return "mshr-targets";
      case InvariantKind::kMshrOccupancy:
        return "mshr-occupancy";
      case InvariantKind::kMshrFill:
        return "mshr-fill";
      case InvariantKind::kSmtPartition:
        return "smt-partition";
      default:
        return "?";
    }
}

std::string
InvariantChecker::describe(const InvariantViolation &v)
{
    std::string s = invariantKindName(v.kind);
    s += " @cycle ";
    s += std::to_string(v.cycle);
    if (v.seq != kInvalidSeqNum) {
        s += " seq ";
        s += std::to_string(v.seq);
    }
    s += ": ";
    s += v.detail;
    return s;
}

void
InvariantChecker::reset()
{
    violations_.clear();
    totalViolations_ = 0;
    cyclesChecked_ = 0;
}

void
InvariantChecker::report(InvariantKind kind, Cycle cycle, InstSeqNum seq,
                         std::string detail)
{
    ++totalViolations_;
    if (violations_.size() >= kMaxRecorded)
        return;
    violations_.push_back({kind, cycle, seq, std::move(detail)});
}

void
InvariantChecker::onCycleEnd(const OooCore &core)
{
    ++cyclesChecked_;
    checkRobOrder(core);
    checkBranchBookkeeping(core);
    checkFreeList(core);
    // Partition isolation before the rename-map check: a cross-thread
    // bleed violates both, and the isolation breach is the root cause.
    checkSmtPartition(core);
    checkRenameMap(core);
    checkLsq(core);
    checkWakeupOrder(core);
    checkNdaSafety(core);
    checkMshr(core);
}

void
InvariantChecker::checkRobOrder(const OooCore &core)
{
    for (const auto &tc : core.threads_) {
        InstSeqNum prev = 0;
        bool first = true;
        for (const DynInstPtr &inst : tc.rob) {
            if (!first && inst->seq <= prev) {
                report(InvariantKind::kRobOrder, core.cycle_, inst->seq,
                       "ROB not in age order (prev seq " +
                           std::to_string(prev) + ")");
            }
            if (inst->squashed) {
                report(InvariantKind::kRobOrder, core.cycle_, inst->seq,
                       "squashed entry still in the ROB");
            }
            if (inst->committed) {
                report(InvariantKind::kRobOrder, core.cycle_, inst->seq,
                       "committed entry still in the ROB");
            }
            prev = inst->seq;
            first = false;
        }
    }
}

void
InvariantChecker::checkBranchBookkeeping(const OooCore &core)
{
    // Each in-flight list holds, in age order, exactly its thread's
    // in-ROB members. The walk advances through the ROB and the list
    // together, so the per-cycle check allocates nothing.
    for (unsigned t = 0; t < core.numThreads_; ++t) {
        const auto &tc = core.threads_[t];
        const auto mirror = [&](const char *what,
                                const std::deque<InstSeqNum> &list,
                                auto is_member) {
            std::size_t members = 0; // ROB members seen so far
            std::size_t matched = 0; // leading members found in order
            for (const DynInstPtr &inst : tc.rob) {
                if (!is_member(*inst))
                    continue;
                if (matched == members && matched < list.size() &&
                    list[matched] == inst->seq) {
                    ++matched;
                }
                ++members;
            }
            if (matched == members && matched == list.size())
                return;
            report(InvariantKind::kBranchBookkeeping, core.cycle_,
                   list.empty() ? kInvalidSeqNum : list.front(),
                   "thread " + std::to_string(t) + " " + what +
                       " list (" + std::to_string(list.size()) +
                       " entries) does not mirror the ROB's " +
                       std::to_string(members));
        };
        // Resolution happens the cycle `executed` is set; fences and
        // wrmsrs leave their lists at commit.
        mirror("unresolved-branch", tc.unresolvedBranches,
               [](const DynInst &i) {
                   return i.isSpecBranch() && !i.executed;
               });
        mirror("fence", tc.fencesInFlight, [](const DynInst &i) {
            return i.uop.op == Opcode::kFence;
        });
        mirror("wrmsr", tc.wrmsrInFlight, [](const DynInst &i) {
            return i.uop.op == Opcode::kWrMsr;
        });
    }
}

void
InvariantChecker::checkFreeList(const OooCore &core)
{
    // Free lists, committed mappings, and in-flight destinations must
    // partition the physical register file: no duplicates (a double
    // free or aliased rename) and no unreachable register (a leak,
    // typically dropped during squash recovery).
    enum : std::uint8_t { kUnowned = 0, kFree, kCommitted, kInFlight };
    static const char *const owner_name[] = {"unowned", "free list",
                                             "commit map", "ROB dest"};
    std::vector<std::uint8_t> &owner = regOwner_;
    owner.assign(core.regs_.size(), kUnowned);

    const auto claim = [&](PhysRegId r, std::uint8_t who,
                           InstSeqNum seq) {
        if (r >= owner.size()) {
            report(InvariantKind::kFreeList, core.cycle_, seq,
                   "out-of-range phys reg " + std::to_string(r));
            return;
        }
        if (owner[r] != kUnowned) {
            report(InvariantKind::kFreeList, core.cycle_, seq,
                   "phys reg " + std::to_string(r) + " claimed by " +
                       owner_name[owner[r]] + " and " + owner_name[who]);
            return;
        }
        owner[r] = who;
    };

    for (unsigned p = 0; p < core.regs_.numPartitions(); ++p) {
        for (PhysRegId r : core.regs_.freeList(p))
            claim(r, kFree, kInvalidSeqNum);
    }
    for (const auto &tc : core.threads_) {
        for (unsigned a = 0; a < kNumArchRegs; ++a)
            claim(tc.commitMap[a], kCommitted, kInvalidSeqNum);
        for (const DynInstPtr &inst : tc.rob) {
            if (inst->dest != kInvalidPhysReg)
                claim(inst->dest, kInFlight, inst->seq);
        }
    }

    for (unsigned r = 0; r < owner.size(); ++r) {
        if (owner[r] == kUnowned) {
            report(InvariantKind::kFreeList, core.cycle_, kInvalidSeqNum,
                   "phys reg " + std::to_string(r) +
                       " leaked (not free, committed, or in flight)");
        }
    }
}

void
InvariantChecker::checkSmtPartition(const OooCore &core)
{
    // SMT isolation: everything a hardware thread references must be
    // its own. Trivially true (and skipped) on a single-thread core.
    if (core.numThreads_ < 2)
        return;

    const auto owned_by = [&](PhysRegId r, unsigned t) {
        return r != kInvalidPhysReg && core.regs_.owner(r) == t;
    };

    for (unsigned t = 0; t < core.numThreads_; ++t) {
        const auto &tc = core.threads_[t];
        for (unsigned a = 0; a < kNumArchRegs; ++a) {
            const PhysRegId spec = tc.rmap.lookup(static_cast<RegId>(a));
            if (!owned_by(spec, t)) {
                report(InvariantKind::kSmtPartition, core.cycle_,
                       kInvalidSeqNum,
                       "thread " + std::to_string(t) + " arch r" +
                           std::to_string(a) + " renamed to p" +
                           std::to_string(spec) +
                           ", owned by thread " +
                           std::to_string(core.regs_.owner(spec)));
            }
            const PhysRegId comm = tc.commitMap[a];
            if (!owned_by(comm, t)) {
                report(InvariantKind::kSmtPartition, core.cycle_,
                       kInvalidSeqNum,
                       "thread " + std::to_string(t) + " arch r" +
                           std::to_string(a) + " committed to p" +
                           std::to_string(comm) +
                           ", owned by thread " +
                           std::to_string(core.regs_.owner(comm)));
            }
        }
        for (const DynInstPtr &inst : tc.rob) {
            if (inst->tid != t) {
                report(InvariantKind::kSmtPartition, core.cycle_,
                       inst->seq,
                       "thread " + std::to_string(t) +
                           " ROB holds an instruction tagged tid " +
                           std::to_string(inst->tid));
            }
            if (inst->dest != kInvalidPhysReg &&
                !owned_by(inst->dest, t)) {
                report(InvariantKind::kSmtPartition, core.cycle_,
                       inst->seq,
                       "thread " + std::to_string(t) +
                           " in-flight dest p" +
                           std::to_string(inst->dest) +
                           " owned by thread " +
                           std::to_string(core.regs_.owner(inst->dest)));
            }
        }
        // Free-list purity: free(r) routes through the owner table,
        // so a foreign register here means a cross-thread free.
        for (PhysRegId r : core.regs_.freeList(t)) {
            if (core.regs_.owner(r) != t) {
                report(InvariantKind::kSmtPartition, core.cycle_,
                       kInvalidSeqNum,
                       "thread " + std::to_string(t) +
                           " free list holds p" + std::to_string(r) +
                           ", owned by thread " +
                           std::to_string(core.regs_.owner(r)));
            }
        }
    }
}

void
InvariantChecker::checkRenameMap(const OooCore &core)
{
    // The speculative map must equal the committed map overridden by
    // the youngest in-flight writer of each architectural register —
    // per thread: renames never cross hardware contexts.
    for (unsigned t = 0; t < core.numThreads_; ++t) {
        const auto &tc = core.threads_[t];
        PhysRegId expect[kNumArchRegs];
        for (unsigned a = 0; a < kNumArchRegs; ++a)
            expect[a] = tc.commitMap[a];
        for (const DynInstPtr &inst : tc.rob) {
            if (inst->dest != kInvalidPhysReg)
                expect[inst->uop.rd] = inst->dest;
        }
        for (unsigned a = 0; a < kNumArchRegs; ++a) {
            const PhysRegId got = tc.rmap.lookup(static_cast<RegId>(a));
            if (got != expect[a]) {
                report(InvariantKind::kRenameMap, core.cycle_,
                       kInvalidSeqNum,
                       "thread " + std::to_string(t) + " arch r" +
                           std::to_string(a) + " maps to p" +
                           std::to_string(got) + ", expected p" +
                           std::to_string(expect[a]));
            }
        }
    }
}

void
InvariantChecker::checkLsq(const OooCore &core)
{
    for (unsigned t = 0; t < core.numThreads_; ++t) {
        const auto &rob = core.threads_[t].rob;
        const auto in_rob = [&](InstSeqNum seq) {
            const auto it = std::lower_bound(
                rob.begin(), rob.end(), seq,
                [](const DynInstPtr &inst, InstSeqNum s) {
                    return inst->seq < s;
                });
            return it != rob.end() && (*it)->seq == seq;
        };

        const auto check_queue = [&](const std::deque<DynInstPtr> &q,
                                     const char *which, bool want_load) {
            InstSeqNum prev = 0;
            bool first = true;
            for (const DynInstPtr &inst : q) {
                if (!first && inst->seq <= prev) {
                    report(InvariantKind::kLsqOrder, core.cycle_,
                           inst->seq,
                           std::string(which) +
                               " queue not in age order");
                }
                if (inst->squashed) {
                    report(InvariantKind::kLsqOrder, core.cycle_,
                           inst->seq,
                           std::string(which) +
                               " queue holds a squashed entry");
                } else if (!in_rob(inst->seq)) {
                    report(InvariantKind::kLsqOrder, core.cycle_,
                           inst->seq,
                           std::string(which) +
                               " queue entry not in the ROB");
                }
                if (inst->isLoad() != want_load) {
                    report(InvariantKind::kLsqOrder, core.cycle_,
                           inst->seq,
                           std::string(which) +
                               " queue holds a non-" + which);
                }
                if (core.numThreads_ > 1 && inst->tid != t) {
                    report(InvariantKind::kSmtPartition, core.cycle_,
                           inst->seq,
                           "thread " + std::to_string(t) + " " + which +
                               " queue holds an instruction tagged tid " +
                               std::to_string(inst->tid));
                }
                prev = inst->seq;
                first = false;
            }
        };

        check_queue(core.lsq_.loads(t), "load", true);
        check_queue(core.lsq_.stores(t), "store", false);
    }
}

void
InvariantChecker::checkWakeupOrder(const OooCore &core)
{
    for (const auto &tc : core.threads_) {
        for (const DynInstPtr &inst : tc.rob) {
            if (inst->dest == kInvalidPhysReg)
                continue;
            const bool ready = core.regs_.ready(inst->dest);
            if (ready != inst->broadcasted) {
                report(InvariantKind::kWakeupOrder, core.cycle_,
                       inst->seq,
                       std::string("dest p") +
                           std::to_string(inst->dest) +
                           (ready ? " ready without a broadcast"
                                  : " broadcast but not ready"));
            }
            if (inst->broadcasted && !inst->executed) {
                report(InvariantKind::kWakeupOrder, core.cycle_,
                       inst->seq, "broadcast before execution");
            }
        }
    }
}

void
InvariantChecker::checkNdaSafety(const OooCore &core)
{
    // Per thread, under that thread's own policy: SMT runs mixed
    // protection levels (unprotected attacker, protected victim).
    for (unsigned t = 0; t < core.numThreads_; ++t) {
        const SecurityConfig &sec = core.cfg_.secFor(t);
        const auto &tc = core.threads_[t];

        // Recompute the paper's safety boundary independently of the
        // core's own unsafe bits: the eldest unresolved spec branch.
        const InstSeqNum boundary = tc.unresolvedBranches.empty()
                                        ? kInvalidSeqNum
                                        : tc.unresolvedBranches.front();

        for (const DynInstPtr &inst : tc.rob) {
            const bool woke =
                inst->broadcasted ||
                (inst->dest != kInvalidPhysReg &&
                 core.regs_.ready(inst->dest));

            // An instruction the core itself still holds unsafe must
            // not have woken consumers, under any configuration.
            if (inst->isUnsafe() && woke) {
                report(InvariantKind::kNdaSafety, core.cycle_,
                       inst->seq,
                       "unsafe instruction woke its consumers");
            }

            // Propagation policy (paper §5.1/§5.2): every covered op
            // younger than the boundary must be marked and deferred.
            if (boundary != kInvalidSeqNum && inst->seq > boundary &&
                sec.marksUnsafeUnderBranch(inst->uop)) {
                if (!inst->unsafeBranch) {
                    report(InvariantKind::kNdaSafety, core.cycle_,
                           inst->seq,
                           "covered op under unresolved branch " +
                               std::to_string(boundary) +
                               " lost its unsafe mark");
                }
                if (woke) {
                    report(InvariantKind::kNdaSafety, core.cycle_,
                           inst->seq,
                           "op broadcast under unresolved branch " +
                               std::to_string(boundary));
                }
            }

            // Bypass Restriction (paper §5.2): a load that executed
            // past stores whose addresses are still unknown stays
            // deferred.
            if (sec.bypassRestriction && inst->isLoad() &&
                inst->executed && !inst->bypassedStores.empty()) {
                if (!inst->unsafeBypass) {
                    report(InvariantKind::kNdaSafety, core.cycle_,
                           inst->seq,
                           "load with unresolved bypassed stores lost "
                           "its unsafe mark");
                }
                if (woke) {
                    report(InvariantKind::kNdaSafety, core.cycle_,
                           inst->seq,
                           "load broadcast with " +
                               std::to_string(
                                   inst->bypassedStores.size()) +
                               " bypassed stores unresolved");
                }
            }

            // Load restriction (paper §5.3): only the ROB head of the
            // load's own thread may wake.
            if (sec.loadRestriction && inst->isLoadLike() &&
                inst != tc.rob.front()) {
                if (!inst->unsafeLoad) {
                    report(InvariantKind::kNdaSafety, core.cycle_,
                           inst->seq,
                           "non-head load-like op lost its unsafe mark");
                }
                if (woke) {
                    report(InvariantKind::kNdaSafety, core.cycle_,
                           inst->seq,
                           "non-head load-like op woke consumers");
                }
            }
        }
    }
}

void
InvariantChecker::checkMshr(const OooCore &core)
{
    const MemHierarchy &hier = core.hier_;

    // advance() runs at the top of the tick, so by cycle end every
    // surviving fill must be strictly in the future — and no farther
    // out than a full L2-miss round trip scheduled this very cycle.
    // A later fillAt is a fill the memory system lost: its waiters
    // would sleep forever, which no stall counter ever surfaces.
    const HierarchyParams &p = hier.params();
    const Cycle fill_bound =
        core.cycle_ + p.l2.hitLatency + p.dramLatency;

    const auto live_load = [&](const MshrTarget &t) {
        if (t.tid >= core.numThreads_)
            return false;
        for (const DynInstPtr &ld : core.lsq_.loads(t.tid)) {
            if (ld->seq == t.seq)
                return !ld->squashed;
        }
        return false;
    };

    const auto check_file = [&](const Mshr &file) {
        if (file.occupancy() > file.capacity()) {
            report(InvariantKind::kMshrOccupancy, core.cycle_,
                   kInvalidSeqNum,
                   file.name() + " holds " +
                       std::to_string(file.occupancy()) +
                       " entries, capacity " +
                       std::to_string(file.capacity()));
        }
        std::vector<Addr> &seen = mshrLines_;
        seen.clear();
        for (const MshrEntry &e : file.entries()) {
            if (std::find(seen.begin(), seen.end(), e.lineAddr) !=
                seen.end()) {
                report(InvariantKind::kMshrPrimary, core.cycle_,
                       kInvalidSeqNum,
                       file.name() + " has two primary entries for line " +
                           std::to_string(e.lineAddr));
            }
            seen.push_back(e.lineAddr);
            if (e.fillAt > fill_bound) {
                report(InvariantKind::kMshrFill, core.cycle_,
                       kInvalidSeqNum,
                       file.name() + " line " +
                           std::to_string(e.lineAddr) + " fills at " +
                           std::to_string(e.fillAt) +
                           ", past the legal bound " +
                           std::to_string(fill_bound));
            }
            for (const MshrTarget &t : e.targets) {
                // Stores are committed, prefetches fire-and-forget,
                // fetch targets belong to the front end — only load
                // targets must map to a live (un-squashed) LSQ load
                // of the thread recorded in the target.
                if (t.kind != MshrTargetKind::kLoad)
                    continue;
                if (!live_load(t)) {
                    report(InvariantKind::kMshrTargets, core.cycle_,
                           t.seq,
                           file.name() + " line " +
                               std::to_string(e.lineAddr) +
                               " carries a load target with no live "
                               "LSQ load behind it");
                }
            }
        }
    };

    check_file(hier.mshrInst());
    check_file(hier.mshrData());
    check_file(hier.mshrL2());
}

} // namespace nda
