#include "corpus_service.hh"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "ckpt/serializer.hh"
#include "replay_grid.hh"

namespace fs = std::filesystem;

namespace perfbench {

using namespace nda;

namespace {

// The request: every workload on the OoO profile, chained samples at
// a 2M-instruction stride, so a corpus miss fast-forwards 64M
// functional instructions and a hit loads 32 checkpoints.
constexpr std::uint64_t kStride = 2'000'000;
constexpr unsigned kSamples = 2;
constexpr std::uint64_t kWarmup = 1000;
constexpr std::uint64_t kMeasure = 2000;
constexpr std::size_t kPattern = 4;  ///< ops 0-2 hit, op 3 misses

bool
plannedMiss(std::size_t i)
{
    return i % kPattern == kPattern - 1;
}

std::uint64_t
u64(const JsonValue &obj, const char *key)
{
    const JsonValue *v = obj.find(key);
    return v && v->kind == JsonValue::Kind::kNumber
               ? static_cast<std::uint64_t>(v->number)
               : 0;
}

/** A value as the service's JSON lines print it (%.6g). */
double
printed(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return std::strtod(buf, nullptr);
}

} // namespace

CorpusService::CorpusService(std::uint64_t seed, Paths paths)
    : seed_(seed), paths_(std::move(paths))
{
    static int instance = 0;
    dir_ = paths_.work + "/corpus-" + std::to_string(::getpid()) + "-" +
           std::to_string(instance++);
}

CorpusService::~CorpusService()
{
    service_.reset();
    store_.reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
    fs::remove_all(dir_ + ".replay", ec);
}

SampleParams
CorpusService::params(std::uint64_t seed) const
{
    SampleParams p;
    p.fastforwardInsts = kStride;
    p.samples = kSamples;
    p.warmupInsts = kWarmup;
    p.measureInsts = kMeasure;
    p.baseSeed = seed;
    p.jobs = 1;
    p.chainSamples = true;
    return p;
}

std::string
CorpusService::request(std::uint64_t seed) const
{
    return "{\"profiles\":[\"OoO\"],\"chain\":true,\"fastforward\":" +
           std::to_string(kStride) + ",\"samples\":" +
           std::to_string(kSamples) + ",\"warmup\":" +
           std::to_string(kWarmup) + ",\"measure\":" +
           std::to_string(kMeasure) + ",\"jobs\":1,\"seed\":" +
           std::to_string(seed) + "}";
}

CorpusService::Response
CorpusService::serve(const std::string &line, OpResult &timing)
{
    std::vector<std::string> lines;
    const Stopwatch watch;
    service_->handleRequest(
        line, [&lines](const std::string &l) { lines.push_back(l); });
    watch.stop(timing);

    Response r;
    for (const std::string &l : lines) {
        JsonValue v;
        std::string err;
        const JsonValue *type = nullptr;
        if (parseJson(l, v, err))
            type = v.find("type");
        if (!type || type->kind != JsonValue::Kind::kString) {
            r.error = "unparsable response line: " + l;
        } else if (type->string == "error") {
            const JsonValue *e = v.find("error");
            r.error = e ? e->string : l;
        } else if (type->string == "cell") {
            r.cells.push_back(l);
        } else if (type->string == "done") {
            r.done = true;
            r.hits = u64(v, "ckpt_hits");
            r.misses = u64(v, "ckpt_misses");
            r.ffInsts = u64(v, "ff_insts");
            r.windows = u64(v, "windows");
        }
    }
    return r;
}

std::vector<CkptKey>
CorpusService::hotKeys() const
{
    const SimConfig cfg = makeProfile(Profile::kOoo);
    const std::uint64_t geom =
        geometryFingerprint(cfg.memory, cfg.core.predictor);
    std::vector<CkptKey> keys;
    for (const Workload *w : ptrs_) {
        for (unsigned s = 0; s < kSamples; ++s)
            keys.push_back(CkptKey{w->name(), seed_, kStride * (s + 1), geom});
    }
    return keys;
}

std::string
CorpusService::hotEntryPath(std::size_t k) const
{
    return dir_ + "/" + hotKeys()[k].fileName();
}

void
CorpusService::openStore(std::uint64_t max_bytes)
{
    service_.reset();
    store_ = std::make_unique<CheckpointStore>(dir_, max_bytes);
    service_ = std::make_unique<GridService>(store_.get());
}

OpResult
CorpusService::setup()
{
    workloads_ = makeAllWorkloads();
    for (const auto &w : workloads_)
        ptrs_.push_back(w.get());
    std::error_code ec;
    fs::remove_all(dir_, ec);
    openStore(0);

    OpResult result;
    const Response r = serve(request(seed_), result);
    const std::uint64_t want = ptrs_.size() * kSamples;
    result.ok = r.error.empty() && r.done && r.misses == want &&
                r.hits == 0 && r.cells.size() == ptrs_.size();
    if (!result.ok)
        note("corpus_service: cold request failed (%s; %llu misses)",
             r.error.c_str(), static_cast<unsigned long long>(r.misses));
    coldCells_ = r.cells;

    // Cap the corpus at two recipes plus two entries of slack: a miss
    // publishes one recipe, and the LRU cap then evicts the previous
    // miss's entries — touched less recently than the hot recipe,
    // which the hits keep fresh.
    std::uint64_t largest = 0;
    for (const CkptKey &k : hotKeys()) {
        const std::uintmax_t bytes =
            fs::file_size(dir_ + "/" + k.fileName(), ec);
        if (!ec)
            largest = std::max<std::uint64_t>(largest, bytes);
    }
    cap_ = 2 * store_->totalBytes() + 2 * largest;
    openStore(cap_);
    return result;
}

OpResult
CorpusService::op(std::size_t i)
{
    OpRecord rec;
    const bool miss = plannedMiss(i);
    rec.seed = miss ? seed_ + 1 + i / kPattern : seed_;
    std::string line = request(rec.seed);
    if (requestFilter)
        line = requestFilter(line);
    const std::uint64_t quarantined = store_->stats().quarantined;

    OpResult result;
    const Response r = serve(line, result);
    rec.seconds = result.seconds;
    rec.windows = r.windows;
    rec.cells = r.cells;

    const std::uint64_t want = ptrs_.size() * kSamples;
    std::string why;
    if (!r.error.empty())
        why = "service error: " + r.error;
    else if (!r.done || r.cells.size() != ptrs_.size() ||
             r.hits + r.misses != want)
        why = "incomplete response";
    else if (miss && r.misses != want)
        why = "planned miss hit the corpus";
    else if (!miss && r.cells != coldCells_)
        why = "cells differ from the cold request";
    else if (!miss && (r.hits != want || r.ffInsts != 0) &&
             store_->stats().quarantined == quarantined)
        why = "hot recipe missed the corpus with no corrupt entry";
    // A hot request that met a corrupt entry rebuilt it: a miss.
    rec.hit = !miss && r.hits == want && r.ffInsts == 0;
    result.ok = why.empty();
    if (!result.ok)
        note("corpus_service: op %zu (seed %llu): %s", i,
             static_cast<unsigned long long>(rec.seed), why.c_str());
    ops_.push_back(std::move(rec));
    return result;
}

std::size_t
CorpusService::opGroup() const
{
    return kPattern;
}

std::vector<std::size_t>
CorpusService::replayOps(std::size_t n) const
{
    // A hit, and a miss that evicts: the second planned miss, the
    // first one that meets a full corpus.
    if (n > 2 * kPattern - 1)
        return {0, 2 * kPattern - 1};
    if (n > kPattern - 1)
        return {0, kPattern - 1};
    return n ? std::vector<std::size_t>{0} : std::vector<std::size_t>{};
}

bool
CorpusService::replay(std::size_t i, Tracer &t, Counts &counts)
{
    const OpRecord &rec = ops_[i];
    // Rebuild the corpus op i met, in a directory of its own: the hot
    // recipe (linked from the live corpus), and the entries of the
    // previous planned miss, published before the hits that followed
    // it touched the hot recipe.
    const std::string dir = dir_ + ".replay";
    std::error_code ec;
    fs::remove_all(dir, ec);
    fs::create_directories(dir, ec);
    for (const CkptKey &k : hotKeys()) {
        const std::string file = k.fileName();
        fs::create_hard_link(dir_ + "/" + file, dir + "/" + file, ec);
        if (ec)
            fs::copy_file(dir_ + "/" + file, dir + "/" + file, ec);
    }
    CheckpointStore corpus(dir, cap_);
    if (i >= kPattern) {
        const std::size_t prev_miss = (i / kPattern) * kPattern - 1;
        GridService prep(&corpus);
        const auto drop = [](const std::string &) {};
        prep.handleRequest(request(ops_[prev_miss].seed), drop);
        prep.handleRequest(request(seed_), drop);
    }
    const std::uint64_t evictions = corpus.stats().evictions;

    GridReplay g;
    {
        SpanScope op(t, "op");
        g = replayGrid(ptrs_, {Profile::kOoo}, params(rec.seed), &corpus, t,
                       counts);
    }
    counts["ckpt.evictions"] += corpus.stats().evictions - evictions;

    bool ok = g.ok && g.cells.size() == rec.cells.size();
    for (std::size_t c = 0; ok && c < g.cells.size(); ++c) {
        JsonValue v;
        std::string err;
        ok = parseJson(rec.cells[c], v, err) && v.find("cpi") &&
             v.find("workload") &&
             v.find("workload")->string == ptrs_[c]->name() &&
             v.find("cpi")->number == printed(g.cells[c].mean.cpi) &&
             v.find("ci95")->number == printed(g.cells[c].cpiCi95) &&
             v.find("mlp")->number == printed(g.cells[c].mean.mlp);
    }
    if (!ok)
        note("corpus_service: replay of op %zu differs from the op", i);

    // Side measurements, outside the op: parse the loaded entries from
    // memory, and serialize the built ones.
    {
        SpanScope side(t, "side");
        for (const ReplayCheckpoint &c : g.checkpoints) {
            if (c.fromCorpus) {
                std::ifstream in(dir + "/" + c.key.fileName(),
                                 std::ios::binary);
                const std::vector<std::uint8_t> bytes(
                    (std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
                SimSnapshot snap;
                CkptReader reader;
                SpanScope s(t, "ckpt.parse");
                ok = reader.parse(bytes.data(), bytes.size(), snap) && ok;
                counts["ckpt.parse_bytes"] += bytes.size();
            } else {
                CkptWriter writer;
                SpanScope s(t, "ckpt.serialize");
                writer.put(c.snap);
                counts["ckpt.serialize_bytes"] += writer.bytes().size();
            }
        }
    }
    fs::remove_all(dir, ec);
    return ok;
}

double
CorpusService::detailedInsts(std::size_t i) const
{
    return static_cast<double>(ops_[i].windows * (kWarmup + kMeasure));
}

void
CorpusService::layerMetrics(const Tracer &t, const Counts &counts,
                            Metrics &m) const
{
    gridLayerMetrics(t, counts, m);
    const auto count = [&counts](const char *name) {
        const auto it = counts.find(name);
        return it == counts.end() ? 0.0 : static_cast<double>(it->second);
    };
    m.set("ckpt.parse_mb_s",
          ratio(count("ckpt.parse_bytes"), t.totalSeconds("ckpt.parse")) / 1e6,
          "MB/s");
    m.set("ckpt.serialize_mb_s",
          ratio(count("ckpt.serialize_bytes"),
                t.totalSeconds("ckpt.serialize")) /
              1e6,
          "MB/s");
    m.set("ckpt.evictions", count("ckpt.evictions"), "count");
    std::vector<double> hit_s, miss_s;
    for (const OpRecord &rec : ops_)
        (rec.hit ? hit_s : miss_s).push_back(rec.seconds);
    m.set("service.hit_s", median(hit_s), "s");
    m.set("service.miss_s", median(miss_s), "s");
}

std::unique_ptr<BenchWorkload>
makeCorpusService(std::uint64_t seed, const Paths &paths)
{
    return std::make_unique<CorpusService>(seed, paths);
}

} // namespace perfbench
