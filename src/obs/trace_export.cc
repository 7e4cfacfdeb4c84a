#include "obs/trace_export.hh"

#include <algorithm>
#include <cstdio>

#include "core/perf_counters.hh"
#include "obs/json_writer.hh"

namespace nda {

const char *
traceFormatName(TraceFormat f)
{
    switch (f) {
      case TraceFormat::kChrome: return "chrome";
      case TraceFormat::kKonata: return "konata";
      case TraceFormat::kText: return "text";
      default: return "?";
    }
}

namespace {

std::string
hexPc(Addr pc)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%llx",
                  static_cast<unsigned long long>(pc));
    return buf;
}

/** One duration slice: ph "X", ts/dur in "microseconds" (cycles). */
void
sliceEvent(JsonWriter &w, const InstTraceRecord &r,
           const char *name, const char *cat, Cycle start, Cycle end)
{
    w.beginObject();
    w.key("name");
    w.value(name);
    w.key("cat");
    w.value(cat);
    w.key("ph");
    w.value("X");
    w.key("ts");
    w.value(static_cast<std::uint64_t>(start));
    w.key("dur");
    w.value(static_cast<std::uint64_t>(end > start ? end - start : 0));
    w.key("pid");
    w.value(0);
    w.key("tid");
    w.value(static_cast<std::uint64_t>(r.seq));
    w.key("args");
    w.beginObject();
    w.key("seq");
    w.value(static_cast<std::uint64_t>(r.seq));
    w.key("pc");
    w.value(hexPc(r.pc));
    w.endObject();
    w.endObject();
}

void
instantEvent(JsonWriter &w, const InstTraceRecord &r, const char *name,
             const char *cat, Cycle at, const char *detail)
{
    w.beginObject();
    w.key("name");
    w.value(name);
    w.key("cat");
    w.value(cat);
    w.key("ph");
    w.value("i");
    w.key("s");
    w.value("t"); // thread-scoped instant
    w.key("ts");
    w.value(static_cast<std::uint64_t>(at));
    w.key("pid");
    w.value(0);
    w.key("tid");
    w.value(static_cast<std::uint64_t>(r.seq));
    w.key("args");
    w.beginObject();
    w.key("seq");
    w.value(static_cast<std::uint64_t>(r.seq));
    if (detail) {
        w.key("detail");
        w.value(detail);
    }
    w.endObject();
    w.endObject();
}

void
threadMeta(JsonWriter &w, const InstTraceRecord &r, std::size_t index)
{
    w.beginObject();
    w.key("name");
    w.value("thread_name");
    w.key("ph");
    w.value("M");
    w.key("pid");
    w.value(0);
    w.key("tid");
    w.value(static_cast<std::uint64_t>(r.seq));
    w.key("args");
    w.beginObject();
    char label[96];
    std::snprintf(label, sizeof(label), "%llu %s %s",
                  static_cast<unsigned long long>(r.seq),
                  hexPc(r.pc).c_str(), r.disasm.c_str());
    w.key("name");
    w.value(label);
    w.endObject();
    w.endObject();

    w.beginObject();
    w.key("name");
    w.value("thread_sort_index");
    w.key("ph");
    w.value("M");
    w.key("pid");
    w.value(0);
    w.key("tid");
    w.value(static_cast<std::uint64_t>(r.seq));
    w.key("args");
    w.beginObject();
    w.key("sort_index");
    w.value(static_cast<std::uint64_t>(index));
    w.endObject();
    w.endObject();
}

} // namespace

std::string
TraceExporter::exportChrome() const
{
    JsonWriter w;
    w.beginObject();
    w.key("displayTimeUnit");
    w.value("ms");
    w.key("traceEvents");
    w.beginArray();

    // Process metadata track.
    w.beginObject();
    w.key("name");
    w.value("process_name");
    w.key("ph");
    w.value("M");
    w.key("pid");
    w.value(0);
    w.key("args");
    w.beginObject();
    w.key("name");
    w.value("ndasim pipeline (1 cycle = 1us)");
    w.endObject();
    w.endObject();

    std::size_t index = 0;
    for (const InstTraceRecord &r : records_) {
        threadMeta(w, r, index++);

        if (r.dispatched >= r.fetched)
            sliceEvent(w, r, "fetch", "pipe", r.fetched, r.dispatched);
        if (r.issued >= r.dispatched && r.issued > 0) {
            sliceEvent(w, r, "dispatch", "pipe", r.dispatched,
                       r.issued);
            if (r.completed >= r.issued)
                sliceEvent(w, r, "execute", "pipe", r.issued,
                           r.completed);
        }
        // The NDA signature: completion happened, but the tag
        // broadcast (dependent wake-up) was held back.
        if (r.broadcasted > r.completed && r.completed > 0) {
            sliceEvent(w, r, "nda_defer", "nda", r.completed,
                       r.broadcasted);
        }
        const Cycle done = std::max(r.completed, r.broadcasted);
        if (r.retired >= done && done > 0)
            sliceEvent(w, r, "commit-wait", "pipe", done, r.retired);

        if (r.wasUnsafe && r.unsafeMarkedAt > 0) {
            instantEvent(w, r, "unsafe-mark", "nda", r.unsafeMarkedAt,
                         nullptr);
        }
        if (r.wasUnsafe && r.unsafeClearedAt > 0) {
            instantEvent(w, r, "unsafe-clear", "nda",
                         r.unsafeClearedAt, nullptr);
        }
        if (r.squashed) {
            instantEvent(w, r, "squash", "squash", r.retired,
                         squashCauseName(r.squashCause));
        }
    }

    w.endArray();
    w.endObject();
    return w.str();
}

std::string
TraceExporter::exportKonata() const
{
    // The Kanata log is cycle-ordered command lines; collect each
    // record's commands keyed by (cycle, emission order) then emit
    // with "C <delta>" advancing the clock.
    struct Cmd {
        Cycle cycle;
        std::uint64_t order;
        std::string text;
    };
    std::vector<Cmd> cmds;
    cmds.reserve(records_.size() * 8);
    std::uint64_t order = 0;
    char buf[192];

    auto push = [&](Cycle cycle, const char *fmt, auto... args) {
        std::snprintf(buf, sizeof(buf), fmt, args...);
        cmds.push_back(Cmd{cycle, order++, buf});
    };

    std::uint64_t uid = 0;
    std::uint64_t retire_id = 0;
    for (const InstTraceRecord &r : records_) {
        const auto id = static_cast<unsigned long long>(uid++);
        const auto seq = static_cast<unsigned long long>(r.seq);
        push(r.fetched, "I\t%llu\t%llu\t0", id, seq);
        push(r.fetched, "L\t%llu\t0\t%llu: %s %s", id, seq,
             hexPc(r.pc).c_str(), r.disasm.c_str());
        if (r.wasUnsafe)
            push(r.fetched, "L\t%llu\t1\tNDA-unsafe", id);
        push(r.fetched, "S\t%llu\t0\tF", id);

        const char *open = "F"; // currently-open lane-0 stage
        auto stage = [&](Cycle cycle, const char *name) {
            push(cycle, "E\t%llu\t0\t%s", id, open);
            push(cycle, "S\t%llu\t0\t%s", id, name);
            open = name;
        };
        if (r.dispatched >= r.fetched)
            stage(r.dispatched, "D");
        if (r.issued >= r.dispatched && r.issued > 0) {
            stage(r.issued, "X");
            if (r.completed >= r.issued) {
                // B renders the deferred-broadcast wait; an immediate
                // broadcast gives it zero width.
                stage(r.completed, "B");
                const Cycle bc = std::max(r.completed, r.broadcasted);
                stage(bc, "C");
            }
        }
        push(r.retired, "E\t%llu\t0\t%s", id, open);
        push(r.retired, "R\t%llu\t%llu\t%d", id,
             static_cast<unsigned long long>(r.squashed ? 0
                                                        : retire_id++),
             r.squashed ? 1 : 0);
    }

    std::stable_sort(cmds.begin(), cmds.end(),
                     [](const Cmd &a, const Cmd &b) {
                         return a.cycle != b.cycle
                                    ? a.cycle < b.cycle
                                    : a.order < b.order;
                     });

    std::string out = "Kanata\t0004\n";
    if (cmds.empty())
        return out;
    Cycle now = cmds.front().cycle;
    std::snprintf(buf, sizeof(buf), "C=\t%llu\n",
                  static_cast<unsigned long long>(now));
    out += buf;
    for (const Cmd &c : cmds) {
        if (c.cycle > now) {
            std::snprintf(buf, sizeof(buf), "C\t%llu\n",
                          static_cast<unsigned long long>(c.cycle -
                                                          now));
            out += buf;
            now = c.cycle;
        }
        out += c.text;
        out += '\n';
    }
    return out;
}

std::string
TraceExporter::exportText(unsigned width) const
{
    return renderWaterfall(records_, 0, records_.size(), width);
}

std::string
TraceExporter::render(TraceFormat f) const
{
    switch (f) {
      case TraceFormat::kChrome: return exportChrome();
      case TraceFormat::kKonata: return exportKonata();
      case TraceFormat::kText: return exportText();
      default: return "";
    }
}

} // namespace nda
