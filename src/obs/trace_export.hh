/**
 * @file
 * Pipeline-trace exporters: render the InstTraceRecords collected by
 * debug::PipeTrace into external visualizer formats —
 *
 *  - Chrome trace_event JSON (chrome://tracing, Perfetto): one track
 *    per instruction, duration slices per pipeline phase, with the
 *    NDA complete->broadcast deferral as its own "nda_defer" slice
 *    and unsafe-mark/clear + squash-cause instant events.
 *  - Konata/Kanata pipeline log ("Kanata 0004"): gem5-O3-pipeview
 *    style, loadable in the Konata viewer.
 *  - Plain-text waterfall (debug::renderWaterfall) for terminals.
 *
 * Exporters are pure functions of the record vector, so tests drive
 * them with synthetic records and golden files stay stable as the
 * simulator's timing evolves.
 */

#ifndef NDASIM_OBS_TRACE_EXPORT_HH
#define NDASIM_OBS_TRACE_EXPORT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "debug/pipe_trace.hh"

namespace nda {

enum class TraceFormat : std::uint8_t { kChrome, kKonata, kText };

const char *traceFormatName(TraceFormat f);

/** Renders a record vector in any supported trace format. */
class TraceExporter
{
  public:
    explicit TraceExporter(std::vector<InstTraceRecord> records)
        : records_(std::move(records))
    {
    }

    /** Chrome trace_event JSON object (Perfetto-loadable). Cycles
     *  map 1:1 to microseconds in the `ts`/`dur` fields. */
    std::string exportChrome() const;

    /** Konata pipeline log, header "Kanata\t0004". */
    std::string exportKonata() const;

    /** Terminal waterfall over all records. */
    std::string exportText(unsigned width = 96) const;

    std::string render(TraceFormat f) const;

    const std::vector<InstTraceRecord> &records() const
    {
        return records_;
    }

  private:
    std::vector<InstTraceRecord> records_;
};

} // namespace nda

#endif // NDASIM_OBS_TRACE_EXPORT_HH
