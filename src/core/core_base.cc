#include "core/core_base.hh"

#include <utility>

#include "core/snapshot.hh"
#include "fuzz/invariant_checker.hh"

namespace nda {

const char *
stopReasonName(StopReason why)
{
    switch (why) {
      case StopReason::kTarget: return "target reached";
      case StopReason::kHalted: return "halted";
      case StopReason::kCycleLimit: return "cycle limit";
      case StopReason::kNoProgress: return "no commit progress";
      case StopReason::kInvariant: return "invariant violation";
    }
    return "?";
}

StopReason
CoreBase::run(std::uint64_t max_insts, Cycle max_cycles)
{
    constexpr std::uint64_t kMax = ~std::uint64_t{0};
    std::uint64_t committed = committed_;
    commitTarget_ =
        max_insts > kMax - committed ? kMax : committed + max_insts;
    const Cycle limit =
        max_cycles > kMax - cycle_ ? kMax : cycle_ + max_cycles;
    Cycle last_commit = cycle_;
    bool running = !halted();
    for (;;) {
        if (checker_ && !checker_->clean())
            return StopReason::kInvariant;
        if (!running)
            return StopReason::kHalted;
        if (committed_ != committed) {
            committed = committed_;
            last_commit = cycle_;
        }
        if (committed >= commitTarget_)
            return StopReason::kTarget;
        if (cycle_ >= limit)
            return StopReason::kCycleLimit;
        if (cycle_ - last_commit >= kNoCommitCycles)
            return StopReason::kNoProgress;
        running = tick();
    }
}

void
CoreBase::applyStart(const Program &prog, const SimSnapshot *start)
{
    if (start) {
        restoreCheckpoint(*start);
        return;
    }
    SimSnapshot cold;
    cold.arch.reset(prog);
    MemoryMap image = std::exchange(cold.arch.mem, MemoryMap{});
    restoreCheckpoint(cold);
    mem() = std::move(image);
}

} // namespace nda
