#include "harness/grid_service.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <string_view>

#include "common/thread_pool.hh"
#include "ckpt/checkpoint_store.hh"
#include "harness/runner.hh"
#include "obs/json_writer.hh"
#include "workloads/workload.hh"

namespace nda {

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind != Kind::kObject)
        return nullptr;
    for (const auto &member : object) {
        if (member.first == key)
            return &member.second;
    }
    return nullptr;
}

namespace {

/**
 * Recursive-descent parser of the JSON grammar (RFC 8259) and nothing
 * more: no hex, signed or zero-padded numbers, no raw control
 * characters in strings, no duplicate object keys. Fail-stop like the
 * checkpoint Cursor: any malformed byte flips `ok_` and every later
 * step is a no-op, so callers check once at the end. Depth-bounded,
 * because a request line is attacker-ish input (a stray client) and a
 * 10k-bracket line must not overflow the stack.
 */
class JsonParser
{
  public:
    JsonParser(const std::string &text, std::string &error)
        : text_(text), error_(error)
    {
    }

    bool
    parse(JsonValue &out)
    {
        skipSpace();
        parseValue(out, 0);
        skipSpace();
        if (ok_ && pos_ != text_.size())
            fail("trailing garbage");
        return ok_;
    }

  private:
    static constexpr int kMaxDepth = 32;

    void
    fail(const std::string &what)
    {
        if (!ok_)
            return;
        ok_ = false;
        error_ = what + " at byte " + std::to_string(pos_);
    }

    void
    skipSpace()
    {
        // JSON whitespace only: isspace() would also skip \v and \f.
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    bool
    consume(char c)
    {
        if (ok_ && pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    literal(const char *word)
    {
        const std::size_t len = std::strlen(word);
        if (text_.compare(pos_, len, word) == 0) {
            pos_ += len;
            return true;
        }
        return false;
    }

    void
    parseValue(JsonValue &out, int depth)
    {
        if (!ok_)
            return;
        if (depth > kMaxDepth) {
            fail("nesting too deep");
            return;
        }
        skipSpace();
        if (pos_ >= text_.size()) {
            fail("unexpected end of input");
            return;
        }
        const char c = text_[pos_];
        if (c == '{') {
            parseObject(out, depth);
        } else if (c == '[') {
            parseArray(out, depth);
        } else if (c == '"') {
            out.kind = JsonValue::Kind::kString;
            parseString(out.string);
        } else if (literal("true")) {
            out.kind = JsonValue::Kind::kBool;
            out.boolean = true;
        } else if (literal("false")) {
            out.kind = JsonValue::Kind::kBool;
            out.boolean = false;
        } else if (literal("null")) {
            out.kind = JsonValue::Kind::kNull;
        } else {
            parseNumber(out);
        }
    }

    void
    parseObject(JsonValue &out, int depth)
    {
        out.kind = JsonValue::Kind::kObject;
        consume('{');
        skipSpace();
        if (consume('}'))
            return;
        std::set<std::string> keys;
        while (ok_) {
            skipSpace();
            std::string key;
            parseString(key);
            if (ok_ && !keys.insert(key).second) {
                fail("duplicate key '" + key + "'");
                return;
            }
            skipSpace();
            if (!consume(':')) {
                fail("expected ':'");
                return;
            }
            JsonValue member;
            parseValue(member, depth + 1);
            out.object.emplace_back(std::move(key), std::move(member));
            skipSpace();
            if (consume('}'))
                return;
            if (!consume(',')) {
                fail("expected ',' or '}'");
                return;
            }
        }
    }

    void
    parseArray(JsonValue &out, int depth)
    {
        out.kind = JsonValue::Kind::kArray;
        consume('[');
        skipSpace();
        if (consume(']'))
            return;
        while (ok_) {
            JsonValue elem;
            parseValue(elem, depth + 1);
            out.array.push_back(std::move(elem));
            skipSpace();
            if (consume(']'))
                return;
            if (!consume(',')) {
                fail("expected ',' or ']'");
                return;
            }
        }
    }

    void
    parseString(std::string &out)
    {
        if (!consume('"')) {
            fail("expected string");
            return;
        }
        while (ok_) {
            if (pos_ >= text_.size()) {
                fail("unterminated string");
                return;
            }
            const char c = text_[pos_++];
            if (c == '"')
                return;
            if (static_cast<unsigned char>(c) < 0x20) {
                fail("raw control character in string");
                return;
            }
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size()) {
                fail("unterminated escape");
                return;
            }
            const char esc = text_[pos_++];
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'n': out += '\n'; break;
              case 't': out += '\t'; break;
              case 'r': out += '\r'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'u': {
                // The protocol is ASCII; decode BMP escapes to the
                // low byte and reject nothing — lossy but total.
                if (pos_ + 4 > text_.size()) {
                    fail("truncated \\u escape");
                    return;
                }
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9') {
                        code |= static_cast<unsigned>(h - '0');
                    } else if (h >= 'a' && h <= 'f') {
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    } else if (h >= 'A' && h <= 'F') {
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    } else {
                        fail("bad \\u escape");
                        return;
                    }
                }
                out += static_cast<char>(code & 0xff);
                break;
              }
              default:
                fail("unknown escape");
                return;
            }
        }
    }

    /** Skip decimal digits; returns how many. */
    std::size_t
    digits()
    {
        const std::size_t from = pos_;
        while (pos_ < text_.size() && text_[pos_] >= '0' &&
               text_[pos_] <= '9') {
            ++pos_;
        }
        return pos_ - from;
    }

    /** -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?, checked before
     *  strtod converts it (strtod alone also takes "0x1", "+1",
     *  "inf"). */
    void
    parseNumber(JsonValue &out)
    {
        const std::size_t start = pos_;
        consume('-');
        const bool zero = pos_ < text_.size() && text_[pos_] == '0';
        const std::size_t int_digits = digits();
        if (int_digits == 0) {
            fail("expected value");
            return;
        }
        if (zero && int_digits > 1) {
            fail("leading zero in number");
            return;
        }
        if (consume('.') && digits() == 0) {
            fail("expected digit after '.'");
            return;
        }
        if (consume('e') || consume('E')) {
            if (!consume('+'))
                consume('-');
            if (digits() == 0) {
                fail("expected exponent digit");
                return;
            }
        }
        out.kind = JsonValue::Kind::kNumber;
        out.number =
            std::strtod(text_.substr(start, pos_ - start).c_str(), nullptr);
    }

    const std::string &text_;
    std::string &error_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

/** One response line: compact JSON + the caller's framing newline. */
std::string
line(const std::function<void(JsonWriter &)> &fill)
{
    JsonWriter w(/*pretty=*/false);
    w.beginObject();
    fill(w);
    w.endObject();
    return w.str();
}

struct RequestError {
    std::string message;
};

/**
 * Field extractors: wrong type is a protocol error, not a default. A
 * number must also be an integer that fits `T` exactly: a fraction or
 * a value past the type's range is an error, never truncated.
 */
template <class T>
T
uintField(const JsonValue &req, const char *key, T dflt)
{
    const JsonValue *v = req.find(key);
    if (!v)
        return dflt;
    if (v->kind != JsonValue::Kind::kNumber || !(v->number >= 0))
        throw RequestError{std::string("field '") + key +
                           "' must be a non-negative number"};
    // Above 2^53 a double may already be a rounded neighbour of the
    // integer the client sent.
    constexpr std::uint64_t kMax = std::min<std::uint64_t>(
        std::numeric_limits<T>::max(), (std::uint64_t{1} << 53) - 1);
    if (v->number > static_cast<double>(kMax) ||
        std::trunc(v->number) != v->number)
        throw RequestError{std::string("field '") + key +
                           "' must be an integer no larger than " +
                           std::to_string(kMax)};
    return static_cast<T>(v->number);
}

bool
boolField(const JsonValue &req, const char *key, bool dflt)
{
    const JsonValue *v = req.find(key);
    if (!v)
        return dflt;
    if (v->kind != JsonValue::Kind::kBool)
        throw RequestError{std::string("field '") + key +
                           "' must be a boolean"};
    return v->boolean;
}

/** Every field a request may carry (GridService's schema). */
constexpr std::string_view kRequestFields[] = {
    "id",      "workloads", "profiles", "fastforward", "warmup",
    "measure", "samples",   "seed",     "jobs",        "chain",
};

/** The largest grid one request may ask for, in windows and in the
 *  simulated instructions they imply: runGrid sizes per-window slots
 *  by the window count before it runs anything. */
constexpr std::uint64_t kMaxRequestWindows = 100'000;
constexpr std::uint64_t kMaxRequestInsts = 100'000'000'000;

std::vector<std::string>
nameListField(const JsonValue &req, const char *key)
{
    std::vector<std::string> names;
    const JsonValue *v = req.find(key);
    if (!v)
        return names;
    if (v->kind != JsonValue::Kind::kArray)
        throw RequestError{std::string("field '") + key +
                           "' must be an array of strings"};
    for (const JsonValue &elem : v->array) {
        if (elem.kind != JsonValue::Kind::kString)
            throw RequestError{std::string("field '") + key +
                               "' must be an array of strings"};
        names.push_back(elem.string);
    }
    return names;
}

} // namespace

bool
GridService::handleRequest(const std::string &request_line,
                           const Emit &emit)
{
    std::string id;
    const auto error = [&](const std::string &message) {
        ++stats_.errors;
        emit(line([&](JsonWriter &w) {
            w.key("type");
            w.value("error");
            if (!id.empty()) {
                w.key("id");
                w.value(id);
            }
            w.key("error");
            w.value(message);
        }));
        return false;
    };

    JsonValue req;
    std::string parse_error;
    if (!parseJson(request_line, req, parse_error))
        return error("bad JSON: " + parse_error);
    if (req.kind != JsonValue::Kind::kObject)
        return error("request must be a JSON object");
    if (const JsonValue *v = req.find("id");
        v && v->kind == JsonValue::Kind::kString) {
        id = v->string;
    }

    SampleParams p;
    std::vector<std::unique_ptr<Workload>> workloads;
    std::vector<SimConfig> configs;
    std::vector<Profile> profiles;
    try {
        for (const auto &member : req.object) {
            if (std::find(std::begin(kRequestFields),
                          std::end(kRequestFields),
                          member.first) == std::end(kRequestFields))
                throw RequestError{"unknown field '" + member.first +
                                   "'"};
        }
        if (const JsonValue *v = req.find("id");
            v && v->kind != JsonValue::Kind::kString)
            throw RequestError{"field 'id' must be a string"};
        p.fastforwardInsts =
            uintField<std::uint64_t>(req, "fastforward", 0);
        p.warmupInsts = uintField(req, "warmup", p.warmupInsts);
        p.measureInsts = uintField(req, "measure", p.measureInsts);
        p.samples = uintField(req, "samples", p.samples);
        p.baseSeed = uintField(req, "seed", p.baseSeed);
        p.jobs = uintField(req, "jobs", 0u);
        if (p.jobs == 0)
            p.jobs = defaultConcurrency();
        p.chainSamples = boolField(req, "chain", false);
        if (const std::string why = p.problem(); !why.empty())
            throw RequestError{why};

        const std::vector<std::string> wl_names =
            nameListField(req, "workloads");
        if (wl_names.empty()) {
            workloads = makeAllWorkloads();
        } else {
            for (const std::string &name : wl_names) {
                auto w = makeWorkload(name);
                if (!w)
                    throw RequestError{"unknown workload '" + name +
                                       "'"};
                workloads.push_back(std::move(w));
            }
        }

        const std::vector<std::string> prof_names =
            nameListField(req, "profiles");
        if (prof_names.empty()) {
            profiles = allProfiles();
        } else {
            for (const std::string &name : prof_names) {
                Profile prof;
                if (!profileByName(name, prof))
                    throw RequestError{"unknown profile '" + name +
                                       "'"};
                profiles.push_back(prof);
            }
        }
        for (Profile prof : profiles)
            configs.push_back(makeProfile(prof));
        const std::uint64_t n_ff = workloads.size() * p.samples;
        const std::uint64_t windows = n_ff * configs.size();
        // Clamping bounds every term, so the sum cannot overflow, and
        // as measure >= 1 a clamped term still exceeds the budget.
        const std::uint64_t cap = kMaxRequestInsts;
        if (windows > kMaxRequestWindows ||
            windows * (std::min(p.warmupInsts, cap) +
                       std::min(p.measureInsts, cap)) +
                    n_ff * std::min(p.fastforwardInsts, cap) >
                cap)
            throw RequestError{
                "request asks for " + std::to_string(windows) +
                " windows; the budget is " +
                std::to_string(kMaxRequestWindows) + " windows and " +
                std::to_string(cap) + " simulated instructions"};
    } catch (const RequestError &e) {
        return error(e.message);
    }

    GridStats gs;
    const auto progress = [&](std::size_t done, std::size_t total) {
        emit(line([&](JsonWriter &w) {
            w.key("type");
            w.value("progress");
            if (!id.empty()) {
                w.key("id");
                w.value(id);
            }
            w.key("done");
            w.value(static_cast<std::uint64_t>(done));
            w.key("total");
            w.value(static_cast<std::uint64_t>(total));
        }));
    };
    std::vector<RunResult> results;
    try {
        results = runGrid(workloads, configs, p, progress, &gs, corpus_);
    } catch (const std::runtime_error &e) {
        return error(e.what()); // e.g. a window past the program's end
    }

    for (std::size_t w_idx = 0; w_idx < workloads.size(); ++w_idx) {
        for (std::size_t c = 0; c < configs.size(); ++c) {
            const RunResult &r = results[w_idx * configs.size() + c];
            emit(line([&](JsonWriter &w) {
                w.key("type");
                w.value("cell");
                if (!id.empty()) {
                    w.key("id");
                    w.value(id);
                }
                w.key("workload");
                w.value(workloads[w_idx]->name());
                w.key("profile");
                w.value(profileName(profiles[c]));
                w.key("cpi");
                w.value(r.mean.cpi);
                w.key("ci95");
                w.value(r.cpiCi95);
                w.key("mlp");
                w.value(r.mean.mlp);
                w.key("samples");
                w.value(static_cast<std::uint64_t>(
                    r.cpiSamples.size()));
                // The CPI stack: per-cause slot counts, nonzero
                // buckets only; sum(slots) == slot_width x cycles.
                w.key("slot_width");
                w.value(r.mean.slotWidth);
                w.key("cycles");
                w.value(r.mean.cycles);
                w.key("slots");
                w.beginObject();
                for (int s = 0; s < kNumStallCauses; ++s) {
                    if (!r.mean.slotStack[s])
                        continue;
                    w.key(stallCauseStatName(static_cast<StallCause>(s)));
                    w.value(r.mean.slotStack[s]);
                }
                w.endObject();
            }));
        }
    }

    ++stats_.requests;
    stats_.cells += results.size();

    emit(line([&](JsonWriter &w) {
        w.key("type");
        w.value("done");
        if (!id.empty()) {
            w.key("id");
            w.value(id);
        }
        w.key("cells");
        w.value(static_cast<std::uint64_t>(results.size()));
        w.key("windows");
        w.value(gs.windows);
        w.key("ckpt_hits");
        w.value(gs.ckptHits);
        w.key("ckpt_misses");
        w.value(gs.ckptMisses);
        w.key("ckpt_bytes");
        w.value(gs.ckptBytes);
        w.key("ckpt_chain_len");
        w.value(gs.ckptChainLen);
        w.key("ff_runs");
        w.value(gs.ffRuns);
        w.key("ff_insts");
        w.value(gs.ffInsts);
    }));
    return true;
}

bool
parseJson(const std::string &text, JsonValue &out, std::string &error)
{
    JsonParser parser(text, error);
    return parser.parse(out);
}

} // namespace nda
