#include "obs/cpi_stack.hh"

#include <algorithm>

#include "obs/stats_registry.hh"

namespace nda {

std::uint64_t
CpiStackProfiler::accountedSlots() const
{
    std::uint64_t sum = 0;
    for (std::uint64_t s : slots_)
        sum += s;
    return sum;
}

double
CpiStackProfiler::slotFraction(StallCause cause) const
{
    const std::uint64_t total = totalSlots();
    return total ? static_cast<double>(slots(cause)) / total : 0.0;
}

void
CpiStackProfiler::reset()
{
    cycles_ = 0;
    std::fill(std::begin(slots_), std::end(slots_), 0);
    hotspots_.reset();
}

void
CpiStackProfiler::registerStats(StatsRegistry &reg,
                                const std::string &prefix) const
{
    const StatsRegistry::Group g = reg.group(prefix);

    g.formula("width", [this] { return width_; },
              "commit slots per cycle the identity is defined against");
    g.counter("cycles", &cycles_, "cycles attributed by the profiler");
    g.formula("total_slots",
              [this] { return static_cast<double>(totalSlots()); },
              "width x cycles: the identity's right-hand side");
    g.formula("unaccounted",
              [this] {
                  return static_cast<double>(totalSlots()) -
                         static_cast<double>(accountedSlots());
              },
              "total_slots minus all cause buckets (must be 0)");

    const StatsRegistry::Group s = g.group("slots");
    static const char *const descs[kNumStallCauses] = {
        "slots that retired an instruction",
        "slots lost to fetch/decode starvation (ROB empty)",
        "slots lost refetching after branch-mispredict squashes",
        "slots lost refetching after memory-order squashes",
        "slots lost to trap delivery and post-fault refetch",
        "slots lost to serializing specon/specoff refetches",
        "slots lost behind an NDA-deferred load producer",
        "slots lost behind an NDA-deferred ALU producer",
        "slots lost behind an NDA-deferred control producer",
        "slots lost behind an in-flight memory access",
        "slots lost to MSHR-full structural rejects",
        "slots lost behind in-flight non-memory execution",
        "slots lost to issue-port arbitration and wakeup",
        "slots lost to issue-queue capacity at dispatch",
        "slots lost to LQ/SQ capacity at dispatch",
        "slots lost to ROB/phys-reg capacity at dispatch",
        "slots at window edges with nothing to account",
    };
    for (int c = 0; c < kNumStallCauses; ++c) {
        s.counter(stallCauseStatName(static_cast<StallCause>(c)),
                  &slots_[c], descs[c]);
    }
}

} // namespace nda
