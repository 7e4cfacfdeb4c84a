/**
 * @file
 * Long-running grid service: the request/response core of
 * bench/grid_server. One JSON request line describes a workload x
 * profile grid (sampling parameters included); the service runs it
 * with the shared `parallelFor` and streams newline-delimited JSON back —
 * progress lines while windows retire, one "cell" line per (workload,
 * profile) result, and a final "done" line carrying the harness
 * stats. Malformed requests produce a single "error" line and never
 * terminate the service.
 *
 * A CheckpointStore shared across requests is the point of running
 * this as a service instead of one bench process per figure: the
 * first request pays the fast-forwards and publishes the checkpoints;
 * every later request with the same (workload, seed, stride,
 * geometry) recipe hits the corpus and skips straight to the detailed
 * windows.
 */

#ifndef NDASIM_HARNESS_GRID_SERVICE_HH
#define NDASIM_HARNESS_GRID_SERVICE_HH

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace nda {

class CheckpointStore;

/**
 * Minimal JSON document: the parse-side complement of JsonWriter.
 * Objects keep insertion order; numbers are doubles (every field the
 * grid protocol carries fits in 53 bits).
 */
struct JsonValue {
    enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

    Kind kind = Kind::kNull;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    /** Object member lookup; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &key) const;
};

/**
 * Parse one JSON document from `text` (trailing whitespace allowed,
 * trailing garbage rejected) by the JSON grammar exactly: hex, signed
 * or zero-padded numbers, raw control characters in strings and
 * duplicate object keys are errors. Returns false and fills `error`
 * with a byte-offset diagnostic on malformed input; never throws or
 * aborts.
 */
bool parseJson(const std::string &text, JsonValue &out,
               std::string &error);

/** Cumulative service-side totals across all requests handled (the
 *  corpus keeps its own: CheckpointStore::stats). */
struct GridServiceStats {
    std::uint64_t requests = 0;   ///< well-formed requests run
    std::uint64_t errors = 0;     ///< requests answered with an error
    std::uint64_t cells = 0;      ///< (workload, profile) cells served
};

/**
 * The grid request handler. Construct once (optionally around a
 * CheckpointStore whose lifetime exceeds the service) and feed it
 * request lines; responses are emitted through the callback so the
 * same service core drives both the stdin line protocol and the unix
 * socket front end of bench/grid_server.
 *
 * Request schema (every field optional):
 *
 *   {"id": "r1",                  // echoed on every response line
 *    "workloads": ["compute"],    // default: the full suite
 *    "profiles": ["OoO", ...],    // Fig 7 names; default: all ten
 *    "fastforward": 1000000,      // functional fast-forward / stride
 *    "warmup": 20000, "measure": 100000, "samples": 3,
 *    "seed": 1, "jobs": 0,        // jobs 0 = hardware threads
 *    "chain": false}              // chained sampling (stride mode)
 *
 * A field outside this schema, or one of the wrong type, gets an
 * error line. A number must be a non-negative integer that fits its
 * field exactly: below 2^32 for `samples` and `jobs`, below 2^53 for
 * the rest. A fraction or a larger value gets an error line, never a
 * truncated or rounded value. A request whose windows (workloads x
 * profiles x samples) or implied simulated instructions exceed a
 * fixed budget also gets an error line.
 *
 * Response lines (one JSON object per line, in request order):
 *
 *   {"type":"progress","id":..,"done":N,"total":M}
 *   {"type":"cell","id":..,"workload":..,"profile":..,
 *    "cpi":..,"ci95":..,"mlp":..,"samples":N,
 *    "slot_width":..,"cycles":..,"slots":{..}}
 *     ..."slots" holds the nonzero per-cause commit-slot counts of the
 *     CPI stack, summing exactly to slot_width x cycles
 *   {"type":"done","id":..,"cells":N,"windows":N,
 *    "ckpt_hits":..,"ckpt_misses":..,"ckpt_bytes":..,
 *    "ckpt_chain_len":..,"ff_runs":..,"ff_insts":..}
 *   {"type":"error","id":..,"error":"..."}
 *     ...for a malformed request, or for a window the program halts
 *     (or the core stops committing) in; the service keeps serving
 */
class GridService
{
  public:
    using Emit = std::function<void(const std::string &line)>;

    explicit GridService(CheckpointStore *corpus = nullptr)
        : corpus_(corpus)
    {
    }

    /**
     * Handle one request line, emitting response lines as results
     * become available. Returns false iff the request was rejected
     * (an "error" line was emitted); the service stays usable either
     * way.
     */
    bool handleRequest(const std::string &line, const Emit &emit);

    const GridServiceStats &stats() const { return stats_; }
    CheckpointStore *corpus() const { return corpus_; }

  private:
    CheckpointStore *corpus_;
    GridServiceStats stats_;
};

} // namespace nda

#endif // NDASIM_HARNESS_GRID_SERVICE_HH
