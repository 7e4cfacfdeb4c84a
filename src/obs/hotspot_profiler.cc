#include "obs/hotspot_profiler.hh"

#include <algorithm>
#include <cstdio>

#include "obs/json_writer.hh"

namespace nda {

const char *
stallCauseName(StallCause c)
{
    switch (c) {
      case StallCause::kCommit: return "commit";
      case StallCause::kFrontend: return "frontend";
      case StallCause::kSquashBranch: return "squash-branch";
      case StallCause::kSquashMemOrder: return "squash-mem-order";
      case StallCause::kSquashFault: return "squash-fault";
      case StallCause::kSquashSerialize: return "squash-serialize";
      case StallCause::kNdaDeferLoad: return "nda-defer-load";
      case StallCause::kNdaDeferAlu: return "nda-defer-alu";
      case StallCause::kNdaDeferControl: return "nda-defer-control";
      case StallCause::kMemLatency: return "mem-latency";
      case StallCause::kMshrFull: return "mshr-full";
      case StallCause::kExecLatency: return "exec-latency";
      case StallCause::kIssueWait: return "issue-wait";
      case StallCause::kIqFull: return "iq-full";
      case StallCause::kLsqFull: return "lsq-full";
      case StallCause::kRobFull: return "rob-full";
      case StallCause::kDispatchShare: return "dispatch-share";
      case StallCause::kIdle: return "idle";
      case StallCause::kNumCauses: break;
    }
    return "?";
}

const char *
stallCauseStatName(StallCause c)
{
    switch (c) {
      case StallCause::kCommit: return "commit";
      case StallCause::kFrontend: return "frontend";
      case StallCause::kSquashBranch: return "squash_branch";
      case StallCause::kSquashMemOrder: return "squash_mem_order";
      case StallCause::kSquashFault: return "squash_fault";
      case StallCause::kSquashSerialize: return "squash_serialize";
      case StallCause::kNdaDeferLoad: return "nda_defer_load";
      case StallCause::kNdaDeferAlu: return "nda_defer_alu";
      case StallCause::kNdaDeferControl: return "nda_defer_control";
      case StallCause::kMemLatency: return "mem_latency";
      case StallCause::kMshrFull: return "mshr_full";
      case StallCause::kExecLatency: return "exec_latency";
      case StallCause::kIssueWait: return "issue_wait";
      case StallCause::kIqFull: return "iq_full";
      case StallCause::kLsqFull: return "lsq_full";
      case StallCause::kRobFull: return "rob_full";
      case StallCause::kDispatchShare: return "dispatch_share";
      case StallCause::kIdle: return "idle";
      case StallCause::kNumCauses: break;
    }
    return "?";
}

std::uint64_t
HotspotEntry::lostSlots() const
{
    std::uint64_t lost = 0;
    for (int c = 0; c < kNumStallCauses; ++c) {
        if (c == static_cast<int>(StallCause::kCommit) ||
            c == static_cast<int>(StallCause::kIdle)) {
            continue;
        }
        lost += slots[c];
    }
    return lost;
}

std::uint64_t
HotspotEntry::totalSlots() const
{
    std::uint64_t total = 0;
    for (std::uint64_t s : slots)
        total += s;
    return total;
}

void
HotspotProfiler::merge(const HotspotProfiler &other)
{
    for (const auto &[pc, slots] : other.table_) {
        auto &mine = table_[pc];
        for (int c = 0; c < kNumStallCauses; ++c)
            mine[c] += slots[c];
    }
}

void
HotspotProfiler::mergeEntry(const HotspotEntry &e)
{
    auto &mine = table_[e.pc];
    for (int c = 0; c < kNumStallCauses; ++c)
        mine[c] += e.slots[c];
}

std::vector<HotspotEntry>
HotspotProfiler::topN(std::size_t n) const
{
    std::vector<HotspotEntry> all;
    all.reserve(table_.size());
    for (const auto &[pc, slots] : table_) {
        HotspotEntry e;
        e.pc = pc;
        e.slots = slots;
        all.push_back(e);
    }
    std::sort(all.begin(), all.end(),
              [](const HotspotEntry &a, const HotspotEntry &b) {
                  const std::uint64_t la = a.lostSlots();
                  const std::uint64_t lb = b.lostSlots();
                  if (la != lb)
                      return la > lb;
                  return a.pc < b.pc;
              });
    if (all.size() > n)
        all.resize(n);
    return all;
}

std::string
HotspotProfiler::renderCollapsed(const std::string &root) const
{
    // Sorted by PC so the folded output is byte-identical for any
    // accumulation order; flamegraph.pl re-sorts anyway.
    std::vector<Addr> pcs;
    pcs.reserve(table_.size());
    for (const auto &[pc, slots] : table_)
        pcs.push_back(pc);
    std::sort(pcs.begin(), pcs.end());

    std::string out;
    for (Addr pc : pcs) {
        const auto &slots = table_.at(pc);
        for (int c = 0; c < kNumStallCauses; ++c) {
            if (!slots[c])
                continue;
            char line[160];
            std::snprintf(line, sizeof(line),
                          "%s;pc_0x%llx;%s %llu\n", root.c_str(),
                          static_cast<unsigned long long>(pc),
                          stallCauseName(static_cast<StallCause>(c)),
                          static_cast<unsigned long long>(slots[c]));
            out += line;
        }
    }
    return out;
}

std::string
HotspotProfiler::topJson(std::size_t n) const
{
    JsonWriter w(false);
    w.beginArray();
    for (const HotspotEntry &e : topN(n)) {
        w.beginObject();
        char pcbuf[24];
        std::snprintf(pcbuf, sizeof(pcbuf), "0x%llx",
                      static_cast<unsigned long long>(e.pc));
        w.key("pc");
        w.value(pcbuf);
        w.key("lost_slots");
        w.value(e.lostSlots());
        w.key("slots");
        w.beginObject();
        for (int c = 0; c < kNumStallCauses; ++c) {
            if (!e.slots[c])
                continue;
            w.key(stallCauseStatName(static_cast<StallCause>(c)));
            w.value(e.slots[c]);
        }
        w.endObject();
        w.endObject();
    }
    w.endArray();
    return w.str();
}

} // namespace nda
