/**
 * @file
 * Tests of the checkpoint-corpus subsystem (src/ckpt/): the versioned
 * binary serializer must round-trip every engine's SimSnapshot
 * exactly (operator==), reject any corrupted byte stream without
 * crashing, and serialize deterministically; the CheckpointStore must
 * hit/miss/publish correctly, quarantine corruption as a miss, evict
 * LRU under a size cap, survive reopen, and never let a structurally
 * incompatible entry reach a grid; and chained fast-forwarding
 * (extendWarmCheckpoint) must compose bit-for-bit with from-scratch
 * builds, with and without DIFT attached.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <vector>

#include "ckpt/checkpoint_store.hh"
#include "ckpt/serializer.hh"
#include "core/core_factory.hh"
#include "core/ooo_core.hh"
#include "core/snapshot.hh"
#include "dift/secret_map.hh"
#include "dift/taint_engine.hh"
#include "grid_reference.hh"
#include "harness/profiles.hh"
#include "harness/runner.hh"
#include "isa/interpreter.hh"
#include "workloads/workload.hh"

namespace nda {
namespace {

namespace fs = std::filesystem;

/** Fresh scratch directory, removed on destruction. */
struct ScratchDir {
    explicit ScratchDir(const char *name)
        : path(fs::path(testing::TempDir()) / name)
    {
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~ScratchDir() { fs::remove_all(path); }
    fs::path path;
    std::string str() const { return path.string(); }
};

SimSnapshot
interpCheckpoint(const char *workload, std::uint64_t seed,
                 std::uint64_t ff, TaintEngine *dift = nullptr)
{
    const auto w = makeWorkload(workload);
    EXPECT_NE(w, nullptr);
    const Program prog = w->build(seed);
    const SimConfig cfg = makeProfile(Profile::kOoo);
    return buildWarmCheckpoint(prog, cfg.memory, cfg.core.predictor,
                               ff, dift);
}

// --------------------------------------------------------------------------
// Serializer: exact round-trip on every engine's snapshot
// --------------------------------------------------------------------------

TEST(CkptSerializer, RoundTripsInterpreterCheckpointWithTaint)
{
    const auto w = makeWorkload("hashjoin");
    const Program prog = w->build(9);
    ASSERT_FALSE(prog.data.empty());
    SecretMap secrets;
    secrets.addMemRange(prog.data.front().base, 64, "key");
    TaintEngine dift(secrets);

    const SimConfig cfg = makeProfile(Profile::kOoo);
    const SimSnapshot snap = buildWarmCheckpoint(
        prog, cfg.memory, cfg.core.predictor, 6'000, &dift);
    ASSERT_TRUE(snap.arch.hasTaint);
    ASSERT_FALSE(snap.arch.memTaint.empty());

    CkptWriter writer;
    writer.put(snap);
    ASSERT_FALSE(writer.bytes().empty());

    CkptReader reader;
    SimSnapshot back;
    ASSERT_TRUE(reader.parse(writer.bytes().data(),
                             writer.bytes().size(), back))
        << reader.error();
    EXPECT_TRUE(back == snap)
        << "deserialized snapshot differs from the original";
    EXPECT_TRUE(back.arch == snap.arch);
    EXPECT_TRUE(back.mem == snap.mem);
    EXPECT_TRUE(back.predictor == snap.predictor);
}

TEST(CkptSerializer, RoundTripsInOrderAndOooCoreCheckpoints)
{
    const auto w = makeWorkload("branchy");
    const Program prog = w->build(4);
    for (const Profile p : {Profile::kInOrder, Profile::kOoo}) {
        const SimConfig cfg = makeProfile(p);
        const SimSnapshot warm = buildWarmCheckpoint(
            prog, cfg.memory, cfg.core.predictor, 4'000);
        auto core = makeCore(prog, cfg);
        core->restoreCheckpoint(warm);
        core->run(2'000, ~Cycle{0});
        SimSnapshot snap;
        core->saveCheckpoint(snap);

        CkptWriter writer;
        writer.put(snap);
        CkptReader reader;
        SimSnapshot back;
        ASSERT_TRUE(reader.parse(writer.bytes().data(),
                                 writer.bytes().size(), back))
            << profileName(p) << ": " << reader.error();
        EXPECT_TRUE(back == snap) << profileName(p);
    }
}

TEST(CkptSerializer, RoundTripsMidMissMshrSave)
{
    // A checkpoint taken while MSHR fills are in flight drains them
    // into the captured image; the byte format is unchanged (the MSHR
    // knob is timing-only), so the serializer must round-trip it like
    // any other snapshot.
    const auto w = makeWorkload("stream");
    const Program prog = w->build(3);
    SimConfig cfg = makeProfile(Profile::kOoo);
    cfg.memory.mshrEntries = 4;

    auto core = makeCore(prog, cfg);
    bool pending = false;
    while (core->cycle() < 100'000 && !core->halted()) {
        core->tick();
        if (!core->hierarchy().mshrDrained()) {
            pending = true;
            break;
        }
    }
    ASSERT_TRUE(pending) << "stream never left a miss in flight";
    SimSnapshot snap;
    core->saveCheckpoint(snap);

    CkptWriter writer;
    writer.put(snap);
    CkptReader reader;
    SimSnapshot back;
    ASSERT_TRUE(reader.parse(writer.bytes().data(),
                             writer.bytes().size(), back))
        << reader.error();
    EXPECT_TRUE(back == snap);
    EXPECT_TRUE(back.mem == snap.mem);
}

TEST(CkptSerializer, RoundTripsArchOnlySnapshot)
{
    const auto w = makeWorkload("crc");
    const Program prog = w->build(2);
    Interpreter interp(prog);
    interp.run(3'000);

    SimSnapshot snap;
    snap.arch = interp.save();
    ASSERT_FALSE(snap.hasMem);
    ASSERT_FALSE(snap.hasPredictor);

    CkptWriter writer;
    writer.put(snap);
    CkptReader reader;
    SimSnapshot back;
    ASSERT_TRUE(reader.parse(writer.bytes().data(),
                             writer.bytes().size(), back))
        << reader.error();
    EXPECT_FALSE(back.hasMem);
    EXPECT_FALSE(back.hasPredictor);
    EXPECT_TRUE(back == snap);
}

TEST(CkptSerializer, SerializationIsDeterministic)
{
    // Same snapshot -> same bytes, across independent writers. This
    // is what lets the corpus treat the key as a content address.
    const SimSnapshot snap = interpCheckpoint("stream", 5, 5'000);
    CkptWriter a, b;
    a.put(snap);
    b.put(snap);
    EXPECT_EQ(a.bytes(), b.bytes());
}

// --------------------------------------------------------------------------
// Serializer: SMT version gating (schema v2 only when extra threads exist)
// --------------------------------------------------------------------------

/** Schema version field of a serialized image (u32 LE at offset 8). */
std::uint32_t
imageVersion(const std::vector<std::uint8_t> &bytes)
{
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(bytes[8 + i]) << (8 * i);
    return v;
}

/** An smt=2 core snapshot with one extra thread context captured. */
SimSnapshot
smtCheckpoint()
{
    ProgramBuilder b("smt-ckpt");
    b.zeroSegment(0x1000, 64);
    b.movi(1, 0);
    b.movi(2, 0);
    auto loop = b.label();
    b.addi(2, 2, 1);
    b.add(1, 1, 2);
    b.movi(3, 5000);
    b.blt(2, 3, loop);
    b.movi(4, 0x1000);
    b.store(4, 0, 1, 8);
    b.halt();
    Program prog = b.build(); // homogeneous co-run on both threads

    SimConfig cfg;
    cfg.core.smtThreads = 2;
    OooCore core(prog, cfg);
    core.run(800, ~Cycle{0});
    SimSnapshot snap;
    core.saveCheckpoint(snap);
    return snap;
}

TEST(CkptSerializer, SmtSnapshotRoundTripsUnderSchemaV2)
{
    const SimSnapshot snap = smtCheckpoint();
    ASSERT_EQ(snap.extraThreads.size(), 1u);

    CkptWriter writer;
    writer.put(snap);
    EXPECT_EQ(imageVersion(writer.bytes()), 2u)
        << "extra threads must bump the schema version";

    CkptReader reader;
    SimSnapshot back;
    ASSERT_TRUE(reader.parse(writer.bytes().data(),
                             writer.bytes().size(), back))
        << reader.error();
    EXPECT_TRUE(back == snap);
    ASSERT_EQ(back.extraThreads.size(), 1u);
    EXPECT_TRUE(back.extraThreads[0] == snap.extraThreads[0]);
}

TEST(CkptSerializer, SingleThreadSnapshotStaysSchemaV1)
{
    // Byte-for-byte backward compatibility: without extra threads the
    // writer must emit exactly the v1 format, so the whole pre-SMT
    // corpus (and any file written at smt=1 today) stays one schema.
    const SimSnapshot snap = interpCheckpoint("stream", 7, 4'000);
    ASSERT_TRUE(snap.extraThreads.empty());

    CkptWriter writer;
    writer.put(snap);
    EXPECT_EQ(imageVersion(writer.bytes()), 1u)
        << "an smt=1 snapshot must remain a v1 file";

    CkptReader reader;
    SimSnapshot back;
    ASSERT_TRUE(reader.parse(writer.bytes().data(),
                             writer.bytes().size(), back))
        << reader.error();
    EXPECT_TRUE(back == snap);
    EXPECT_TRUE(back.extraThreads.empty());
}

TEST(CkptSerializer, RejectsThreadsSectionInV1File)
{
    // A THREADS section is meaningless under schema v1; a file that
    // claims v1 but carries one is corrupt and must be rejected (the
    // section CRCs do not cover the header, so this is a real hole a
    // tampered index could otherwise slip through).
    const SimSnapshot snap = smtCheckpoint();
    CkptWriter writer;
    writer.put(snap);
    std::vector<std::uint8_t> downgraded = writer.bytes();
    ASSERT_EQ(imageVersion(downgraded), 2u);
    downgraded[8] = 1; // patch the version field back to v1

    CkptReader reader;
    SimSnapshot out;
    EXPECT_FALSE(
        reader.parse(downgraded.data(), downgraded.size(), out));
    EXPECT_NE(reader.error().find("THREADS"), std::string::npos)
        << reader.error();
}

// --------------------------------------------------------------------------
// Serializer: the byte format is pinned
// --------------------------------------------------------------------------

/** FNV-1a of a serialized image. */
std::uint64_t
imageHash(const SimSnapshot &snap)
{
    CkptWriter writer;
    writer.put(snap);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const std::uint8_t b : writer.bytes()) {
        h ^= b;
        h *= 0x100000001b3ULL;
    }
    return h;
}

TEST(CkptSerializer, BytesMatchPinnedFormat)
{
    // Every corpus on disk holds images in this format, so the writer
    // must keep producing exactly these bytes: a change to any
    // section's field order or width shows up here, and must come
    // with a schema-version bump instead of a new hash.
    const Program hashjoin = makeWorkload("hashjoin")->build(9);
    SecretMap secrets;
    secrets.addMemRange(hashjoin.data.front().base, 64, "key");
    TaintEngine dift(secrets);
    const SimConfig ooo = makeProfile(Profile::kOoo);
    const SimSnapshot tainted = buildWarmCheckpoint(
        hashjoin, ooo.memory, ooo.core.predictor, 6'000, &dift);

    const Program branchy = makeWorkload("branchy")->build(4);
    auto core = makeCore(branchy, ooo);
    core->restoreCheckpoint(buildWarmCheckpoint(
        branchy, ooo.memory, ooo.core.predictor, 4'000));
    core->run(2'000, ~Cycle{0});
    SimSnapshot ooo_core;
    core->saveCheckpoint(ooo_core);

    Interpreter interp(makeWorkload("crc")->build(2));
    interp.run(3'000);
    SimSnapshot arch_only;
    arch_only.arch = interp.save();

    EXPECT_EQ(imageHash(tainted), 0x74c36371bdba5fb9ULL)
        << "interpreter + taint";
    EXPECT_EQ(imageHash(ooo_core), 0x9e737a150b1b3101ULL) << "OoO core";
    EXPECT_EQ(imageHash(smtCheckpoint()), 0x380e57dce36c80b6ULL)
        << "smt=2 (schema v2)";
    EXPECT_EQ(imageHash(arch_only), 0xd7133bf896b64f12ULL)
        << "arch only";
}

// --------------------------------------------------------------------------
// Serializer: corruption never crashes, always rejects
// --------------------------------------------------------------------------

/** Section boundaries of a serialized image: byte offsets of each
 *  frame header and payload, derived by walking the format. */
std::vector<std::size_t>
interestingOffsets(const std::vector<std::uint8_t> &bytes)
{
    std::vector<std::size_t> offs;
    // Header: magic u64 | version u32 | section count u32.
    for (std::size_t i = 0; i < 16 && i < bytes.size(); ++i)
        offs.push_back(i);
    std::size_t pos = 16;
    while (pos + 16 <= bytes.size()) {
        std::uint64_t len = 0;
        for (int i = 0; i < 8; ++i)
            len |= static_cast<std::uint64_t>(bytes[pos + 4 + i])
                   << (8 * i);
        // Frame fields (id, len, crc) and a spread of payload bytes.
        for (std::size_t i = 0; i < 16; ++i)
            offs.push_back(pos + i);
        const std::size_t payload = pos + 16;
        for (std::size_t i = 0; i < len;
             i += std::max<std::size_t>(1, len / 7))
            offs.push_back(payload + i);
        if (len > 0)
            offs.push_back(payload + len - 1);
        pos = payload + len;
    }
    return offs;
}

TEST(CkptSerializer, RejectsFlippedBytesInEverySection)
{
    const SimSnapshot snap = interpCheckpoint("crc", 3, 2'000);
    CkptWriter writer;
    writer.put(snap);
    const std::vector<std::uint8_t> clean = writer.bytes();

    for (const std::size_t off : interestingOffsets(clean)) {
        ASSERT_LT(off, clean.size());
        std::vector<std::uint8_t> bad = clean;
        bad[off] ^= 0x5a;
        CkptReader reader;
        SimSnapshot out;
        const bool ok = reader.parse(bad.data(), bad.size(), out);
        if (ok) {
            // A flip that survives parsing must still decode to the
            // original snapshot (e.g. it never happens with CRC over
            // every payload — assert so a framing hole shows up).
            EXPECT_TRUE(out == snap)
                << "flip at byte " << off
                << " parsed into a DIFFERENT snapshot";
            ADD_FAILURE() << "flip at byte " << off
                          << " was not rejected";
        } else {
            EXPECT_FALSE(reader.error().empty());
        }
    }
}

TEST(CkptSerializer, RejectsTruncationAtEveryBoundary)
{
    const SimSnapshot snap = interpCheckpoint("crc", 3, 2'000);
    CkptWriter writer;
    writer.put(snap);
    const std::vector<std::uint8_t> clean = writer.bytes();

    std::vector<std::size_t> lengths;
    for (std::size_t i = 0; i < 32 && i < clean.size(); ++i)
        lengths.push_back(i);
    for (const std::size_t off : interestingOffsets(clean))
        if (off < clean.size())
            lengths.push_back(off);
    for (const std::size_t len : lengths) {
        CkptReader reader;
        SimSnapshot out;
        EXPECT_FALSE(reader.parse(clean.data(), len, out))
            << "accepted a " << len << "-byte truncation of a "
            << clean.size() << "-byte image";
    }

    // Trailing garbage after a valid image is also rejected.
    std::vector<std::uint8_t> padded = clean;
    padded.push_back(0);
    CkptReader reader;
    SimSnapshot out;
    EXPECT_FALSE(reader.parse(padded.data(), padded.size(), out));
}

TEST(CkptSerializer, RejectsBadMagicAndVersion)
{
    const SimSnapshot snap = interpCheckpoint("crc", 1, 1'000);
    CkptWriter writer;
    writer.put(snap);

    std::vector<std::uint8_t> bad_magic = writer.bytes();
    bad_magic[0] ^= 0xff;
    CkptReader reader;
    SimSnapshot out;
    EXPECT_FALSE(reader.parse(bad_magic.data(), bad_magic.size(), out));
    EXPECT_NE(reader.error().find("magic"), std::string::npos)
        << reader.error();

    std::vector<std::uint8_t> bad_version = writer.bytes();
    bad_version[8] = 0xff; // schema version lives at bytes 8..11
    EXPECT_FALSE(
        reader.parse(bad_version.data(), bad_version.size(), out));
    EXPECT_NE(reader.error().find("version"), std::string::npos)
        << reader.error();

    EXPECT_FALSE(reader.parse(nullptr, 0, out));
}

// --------------------------------------------------------------------------
// CheckpointStore: hit/miss, durability, quarantine, LRU
// --------------------------------------------------------------------------

TEST(CheckpointStore, MissThenPublishThenHit)
{
    ScratchDir dir("ckpt_store_basic");
    CheckpointStore store(dir.str());
    const SimSnapshot snap = interpCheckpoint("compute", 1, 4'000);
    const SimConfig cfg = makeProfile(Profile::kOoo);
    const CkptKey key{"compute", 1, 4'000,
                      geometryFingerprint(cfg.memory,
                                          cfg.core.predictor)};

    SimSnapshot out;
    EXPECT_FALSE(store.load(key, out));
    EXPECT_FALSE(store.contains(key));

    const std::uint64_t published = store.store(key, snap);
    EXPECT_GT(published, 0u);
    EXPECT_TRUE(store.contains(key));
    EXPECT_EQ(store.entryCount(), 1u);
    EXPECT_EQ(store.totalBytes(), published);
    EXPECT_TRUE(fs::exists(store.indexPath()));

    std::uint64_t loaded_bytes = 0;
    ASSERT_TRUE(store.load(key, out, &loaded_bytes));
    EXPECT_EQ(loaded_bytes, published);
    EXPECT_TRUE(out == snap);
    EXPECT_EQ(store.stats().hits, 1u);
    EXPECT_EQ(store.stats().misses, 1u);
}

TEST(CheckpointStore, IndexSurvivesReopen)
{
    ScratchDir dir("ckpt_store_reopen");
    const SimSnapshot snap = interpCheckpoint("compute", 2, 3'000);
    const CkptKey key{"compute", 2, 3'000, 0x1234};
    {
        CheckpointStore store(dir.str());
        ASSERT_GT(store.store(key, snap), 0u);
    }
    CheckpointStore reopened(dir.str());
    EXPECT_EQ(reopened.entryCount(), 1u);
    SimSnapshot out;
    ASSERT_TRUE(reopened.load(key, out));
    EXPECT_TRUE(out == snap);
}

TEST(CheckpointStore, QuarantinesCorruptEntryAsMissThenHeals)
{
    ScratchDir dir("ckpt_store_quarantine");
    CheckpointStore store(dir.str());
    const SimSnapshot snap = interpCheckpoint("compute", 3, 2'000);
    const CkptKey key{"compute", 3, 2'000, 0xabcd};
    ASSERT_GT(store.store(key, snap), 0u);

    // Flip one byte in the middle of the published file.
    const fs::path entry = dir.path / key.fileName();
    ASSERT_TRUE(fs::exists(entry));
    {
        std::FILE *f = std::fopen(entry.string().c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        std::fseek(f, static_cast<long>(fs::file_size(entry) / 2),
                   SEEK_SET);
        const int c = std::fgetc(f);
        std::fseek(f, -1, SEEK_CUR);
        std::fputc(c ^ 0x40, f);
        std::fclose(f);
    }

    SimSnapshot out;
    EXPECT_FALSE(store.load(key, out))
        << "a corrupt entry must be a miss, not a hit";
    EXPECT_EQ(store.stats().quarantined, 1u);
    EXPECT_FALSE(fs::exists(entry));
    EXPECT_TRUE(fs::exists(dir.path / (key.fileName() + ".bad")));

    // The caller's rebuild-and-republish path heals the corpus.
    ASSERT_GT(store.store(key, snap), 0u);
    ASSERT_TRUE(store.load(key, out));
    EXPECT_TRUE(out == snap);
}

TEST(CheckpointStore, EvictsLeastRecentlyUsedUnderSizeCap)
{
    ScratchDir dir("ckpt_store_lru");
    const SimSnapshot snap = interpCheckpoint("compute", 4, 2'000);
    CkptWriter writer;
    writer.put(snap);
    const std::uint64_t entry_bytes = writer.bytes().size();

    // Cap fits two entries but not three.
    CheckpointStore store(dir.str(), entry_bytes * 2 + entry_bytes / 2);
    const CkptKey k1{"compute", 4, 2'000, 1};
    const CkptKey k2{"compute", 4, 2'000, 2};
    const CkptKey k3{"compute", 4, 2'000, 3};
    ASSERT_GT(store.store(k1, snap), 0u);
    ASSERT_GT(store.store(k2, snap), 0u);

    // Touch k1 so k2 is the LRU entry when k3 forces an eviction.
    SimSnapshot out;
    ASSERT_TRUE(store.load(k1, out));
    ASSERT_GT(store.store(k3, snap), 0u);

    EXPECT_EQ(store.entryCount(), 2u);
    EXPECT_GE(store.stats().evictions, 1u);
    EXPECT_TRUE(store.contains(k1));
    EXPECT_FALSE(store.contains(k2)) << "LRU entry must go first";
    EXPECT_TRUE(store.contains(k3));
    EXPECT_LE(store.totalBytes(), store.maxBytes());
    EXPECT_FALSE(store.load(k2, out));
}

TEST(CheckpointStore, GeometryFingerprintIgnoresLatencies)
{
    const SimConfig base = makeProfile(Profile::kOoo);
    SimConfig slower = base;
    slower.memory.dramLatency = 500;
    slower.memory.l2.hitLatency = 99;
    EXPECT_EQ(geometryFingerprint(base.memory, base.core.predictor),
              geometryFingerprint(slower.memory,
                                  slower.core.predictor));

    SimConfig small = base;
    small.memory.l1d.sizeBytes /= 2;
    EXPECT_NE(geometryFingerprint(base.memory, base.core.predictor),
              geometryFingerprint(small.memory,
                                  small.core.predictor));
    SimConfig btb = base;
    btb.core.predictor.btb.entries /= 2;
    EXPECT_NE(geometryFingerprint(base.memory, base.core.predictor),
              geometryFingerprint(btb.memory, btb.core.predictor));
}

// --------------------------------------------------------------------------
// Chained fast-forward: extension composes exactly
// --------------------------------------------------------------------------

TEST(ChainedCheckpoints, ExtendEqualsFromScratchBuild)
{
    const auto w = makeWorkload("mixed");
    const Program prog = w->build(6);
    const SimConfig cfg = makeProfile(Profile::kOoo);

    const SimSnapshot direct = buildWarmCheckpoint(
        prog, cfg.memory, cfg.core.predictor, 12'000);
    for (const std::uint64_t split : {1'000ull, 6'000ull, 11'999ull}) {
        const SimSnapshot base = buildWarmCheckpoint(
            prog, cfg.memory, cfg.core.predictor, split);
        const SimSnapshot chained =
            extendWarmCheckpoint(prog, base, 12'000);
        EXPECT_TRUE(chained == direct)
            << "extend(build(" << split << "), 12000) != build(12000)";
    }

    // Zero-length extension is the identity.
    const SimSnapshot same = extendWarmCheckpoint(prog, direct, 12'000);
    EXPECT_TRUE(same == direct);
}

TEST(ChainedCheckpoints, ExtendCarriesTaintLikeFromScratch)
{
    const auto w = makeWorkload("hashjoin");
    const Program prog = w->build(8);
    ASSERT_FALSE(prog.data.empty());
    SecretMap secrets;
    secrets.addMemRange(prog.data.front().base, 128, "secret");
    const SimConfig cfg = makeProfile(Profile::kStrict);

    TaintEngine dift_direct(secrets);
    const SimSnapshot direct = buildWarmCheckpoint(
        prog, cfg.memory, cfg.core.predictor, 10'000, &dift_direct);
    ASSERT_TRUE(direct.arch.hasTaint);

    TaintEngine dift_base(secrets);
    const SimSnapshot base = buildWarmCheckpoint(
        prog, cfg.memory, cfg.core.predictor, 4'000, &dift_base);
    TaintEngine dift_ext(secrets);
    const SimSnapshot chained =
        extendWarmCheckpoint(prog, base, 10'000, &dift_ext);
    EXPECT_TRUE(chained == direct)
        << "chained DIFT checkpoint diverged from from-scratch";
}

TEST(ChainedCheckpointsDeathTest, RejectsBackwardTarget)
{
    const auto w = makeWorkload("crc");
    const Program prog = w->build(1);
    const SimConfig cfg = makeProfile(Profile::kOoo);
    const SimSnapshot base = buildWarmCheckpoint(
        prog, cfg.memory, cfg.core.predictor, 5'000);
    EXPECT_DEATH(extendWarmCheckpoint(prog, base, 4'000), "before");
}

TEST(ChainedCheckpointsDeathTest, ChainedSamplingNeedsStride)
{
    SampleParams sp;
    sp.chainSamples = true;
    sp.fastforwardInsts = 0;
    EXPECT_DEATH(sp.validate(), "chain");
}

// --------------------------------------------------------------------------
// Grid integration: chained mode and the corpus preserve bit-identity
// --------------------------------------------------------------------------

void
expectIdentical(const std::vector<RunResult> &a,
                const std::vector<RunResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].mean.cpi, b[i].mean.cpi) << "cell " << i;
        EXPECT_EQ(a[i].mean.cycles, b[i].mean.cycles) << "cell " << i;
        EXPECT_EQ(a[i].cpiSamples, b[i].cpiSamples) << "cell " << i;
    }
}

SampleParams
chainedParams()
{
    SampleParams sp;
    sp.fastforwardInsts = 8'000; // stride
    sp.warmupInsts = 500;
    sp.measureInsts = 1'000;
    sp.samples = 3;
    sp.baseSeed = 21;
    sp.jobs = 2;
    sp.chainSamples = true;
    return sp;
}

TEST(ChainedGrid, SharedChainsEqualPerWindowRebuildsWithLessWork)
{
    std::vector<std::unique_ptr<Workload>> ws;
    ws.push_back(makeWorkload("crc"));
    ws.push_back(makeWorkload("stream"));
    const std::vector<SimConfig> configs{
        makeProfile(Profile::kOoo), makeProfile(Profile::kStrict),
        makeProfile(Profile::kInOrder)};

    const SampleParams shared = chainedParams();

    GridStats shared_stats, rebuild_stats;
    const auto a =
        runGrid(ws, configs, shared, nullptr, &shared_stats);
    const auto b = perWindowGrid(ws, configs, shared, &rebuild_stats);
    expectIdentical(a, b);

    // One chain per workload: W*S builds whose *total* functional
    // work is one stride per sample, not s+1 strides per sample.
    EXPECT_EQ(shared_stats.ffRuns, ws.size() * shared.samples);
    EXPECT_EQ(shared_stats.ffInsts,
              ws.size() * shared.samples * shared.fastforwardInsts);
    EXPECT_EQ(shared_stats.ckptChainLen, shared.samples);
    // Rebuild mode fast-forwards 1+2+3 strides per workload per
    // config cell.
    EXPECT_GT(rebuild_stats.ffInsts, shared_stats.ffInsts);

    // And the parallel schedule cannot perturb chained results.
    SampleParams serial = chainedParams();
    serial.jobs = 1;
    expectIdentical(a, runGrid(ws, configs, serial));
}

TEST(ChainedGrid, WarmCorpusIsBitIdenticalAndSkipsFastForwards)
{
    ScratchDir dir("ckpt_grid_corpus");
    std::vector<std::unique_ptr<Workload>> ws;
    ws.push_back(makeWorkload("compute"));
    ws.push_back(makeWorkload("branchy"));
    const std::vector<SimConfig> configs{
        makeProfile(Profile::kOoo),
        makeProfile(Profile::kFullProtection)};
    const SampleParams sp = chainedParams();

    GridStats none_stats, cold_stats, warm_stats;
    const auto none = runGrid(ws, configs, sp, nullptr, &none_stats);

    CheckpointStore store(dir.str());
    const auto cold =
        runGrid(ws, configs, sp, nullptr, &cold_stats, &store);
    const auto warm =
        runGrid(ws, configs, sp, nullptr, &warm_stats, &store);

    expectIdentical(none, cold);
    expectIdentical(none, warm);

    const std::uint64_t n_ckpts = ws.size() * sp.samples;
    EXPECT_EQ(cold_stats.ckptHits, 0u);
    EXPECT_EQ(cold_stats.ckptMisses, n_ckpts);
    EXPECT_GT(cold_stats.ckptBytes, 0u);
    EXPECT_EQ(warm_stats.ckptHits, n_ckpts);
    EXPECT_EQ(warm_stats.ckptMisses, 0u);
    EXPECT_EQ(warm_stats.ffRuns, 0u)
        << "a warm corpus must eliminate every fast-forward";
    EXPECT_EQ(warm_stats.ffInsts, 0u);
    EXPECT_EQ(store.entryCount(), n_ckpts);
}

TEST(ChainedGrid, CorpusIndexDoesNotDependOnJobs)
{
    // The index's LRU use stamps follow the task order, not the
    // pool's schedule: the same grids leave the same index bytes at
    // any job count. The second grid mixes hits and misses.
    const auto index_after = [](unsigned jobs, const char *name) {
        ScratchDir dir(name);
        CheckpointStore store(dir.str());
        const std::vector<SimConfig> configs{makeProfile(Profile::kOoo)};
        SampleParams sp = chainedParams();
        sp.jobs = jobs;
        std::vector<std::unique_ptr<Workload>> ws;
        for (const char *w : {"crc", "stream"})
            ws.push_back(makeWorkload(w));
        runGrid(ws, configs, sp, nullptr, nullptr, &store);
        ws.insert(ws.begin(), makeWorkload("compute"));
        ws.push_back(makeWorkload("branchy"));
        runGrid(ws, configs, sp, nullptr, nullptr, &store);
        std::ifstream in(store.indexPath(), std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in), {});
    };
    const std::string serial = index_after(1, "ckpt_index_jobs1");
    EXPECT_FALSE(serial.empty());
    EXPECT_EQ(serial, index_after(8, "ckpt_index_jobs8"));
}

TEST(ChainedGrid, NonChainedCorpusAlsoHitsAcrossRuns)
{
    ScratchDir dir("ckpt_grid_corpus_classic");
    std::vector<std::unique_ptr<Workload>> ws;
    ws.push_back(makeWorkload("crc"));
    const std::vector<SimConfig> configs{makeProfile(Profile::kOoo)};
    SampleParams sp = chainedParams();
    sp.chainSamples = false; // classic independently-seeded samples

    CheckpointStore store(dir.str());
    GridStats cold_stats, warm_stats;
    const auto cold =
        runGrid(ws, configs, sp, nullptr, &cold_stats, &store);
    const auto warm =
        runGrid(ws, configs, sp, nullptr, &warm_stats, &store);
    expectIdentical(cold, warm);
    EXPECT_EQ(cold_stats.ckptMisses, sp.samples);
    EXPECT_EQ(warm_stats.ckptHits, sp.samples);
    EXPECT_EQ(warm_stats.ckptChainLen, 0u);
}

TEST(ChainedGrid, StructurallyIncompatibleCorpusEntryIsRebuilt)
{
    ScratchDir dir("ckpt_grid_gate");
    std::vector<std::unique_ptr<Workload>> ws;
    ws.push_back(makeWorkload("compute"));
    const std::vector<SimConfig> configs{makeProfile(Profile::kOoo)};
    SampleParams sp = chainedParams();
    sp.samples = 1;

    // Poison the corpus: under the EXACT key the grid will probe,
    // publish a snapshot built with a different cache geometry
    // (simulating a fingerprint collision or a tampered index).
    const std::uint64_t grid_fp = geometryFingerprint(
        configs[0].memory, configs[0].core.predictor);
    SimConfig other = configs[0];
    other.memory.l1d.sizeBytes /= 2;
    const Program prog = ws[0]->build(sp.baseSeed);
    const SimSnapshot wrong = buildWarmCheckpoint(
        prog, other.memory, other.core.predictor,
        sp.fastforwardInsts);
    CheckpointStore store(dir.str());
    const CkptKey key{"compute", sp.baseSeed, sp.fastforwardInsts,
                      grid_fp};
    ASSERT_GT(store.store(key, wrong), 0u);

    // The grid must refuse the hit, rebuild, and produce exactly the
    // no-corpus results — never restore mismatched tags.
    const auto clean = runGrid(ws, configs, sp);
    GridStats stats;
    const auto gated =
        runGrid(ws, configs, sp, nullptr, &stats, &store);
    expectIdentical(clean, gated);
    EXPECT_EQ(stats.ckptHits, 0u);
    EXPECT_EQ(stats.ckptMisses, 1u);
    EXPECT_EQ(stats.ffRuns, 1u);

    // The rebuild republished a compatible entry: now it hits.
    SimSnapshot healed;
    ASSERT_TRUE(store.load(key, healed));
    EXPECT_TRUE(healed.structurallyCompatible(configs[0]));
}

} // namespace
} // namespace nda
