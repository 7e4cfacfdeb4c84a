#include "ckpt/serializer.hh"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <iterator>

#include "common/log.hh"

namespace nda {

namespace {

// Framing constants. The magic spells "NDASCKPT" when the u64 is laid
// down little-endian; bumping kSchemaVersion invalidates every corpus
// entry at once (readers reject, the store rebuilds).
//
// Version history:
//   1 — original schema, single hardware thread.
//   2 — adds the THREADS section (SMT contexts 1..N-1). The writer
//       emits version 2 *only* when extra threads exist, so every
//       single-thread checkpoint stays byte-identical to version 1
//       and the whole v1 corpus remains loadable.
constexpr std::uint64_t kMagic = 0x54504B435341444EULL;
constexpr std::uint32_t kSchemaVersion = 1;
constexpr std::uint32_t kSchemaVersionSmt = 2;

enum SectionId : std::uint32_t {
    kArchSection = 1,      ///< registers, MSRs, PC, counters
    kMemMapSection = 2,    ///< resident functional-memory pages
    kTaintSection = 3,     ///< architectural DIFT taint image
    kHierSection = 4,      ///< cache geometry + tag/LRU warming state
    kPredictorSection = 5, ///< predictor geometry + table state
    kThreadsSection = 6,   ///< SMT threads 1..N-1 (schema v2+)
};

// ---------------------------------------------------------------------------
// The two directions of one format
// ---------------------------------------------------------------------------
//
// Every section is described once, by an `ioX(IO &, T &)` template
// that visits its fields in file order with explicit widths. Run with
// an Appender over a const snapshot it writes; run with a Cursor over
// a mutable one it reads. Both types offer the same operations:
//
//   u32/u64(v)      fixed-width little-endian integer
//   flag(b)         bool as one byte (0/1)
//   bytes(p, n)     raw byte run
//   str(s)          u32 length + bytes
//   size(vec, min)  u64 element count; the reader resizes `vec`
//   count(n, min)   u64 element count held in a local
//   present(flag)   the section's presence stands for `flag`
//
// `min` is the smallest encoding of one element: the reader rejects a
// count that cannot fit in the bytes left, so a flipped length byte
// cannot turn into a multi-gigabyte allocation.

/** Little-endian appender: the writing half. */
struct Appender {
    static constexpr bool kReading = false;
    std::vector<std::uint8_t> &b;

    bool ok() const { return true; }

    void
    le(std::uint64_t v, int width)
    {
        for (int i = 0; i < width; ++i)
            b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }

    template <class T>
    void u32(const T &v) { le(static_cast<std::uint32_t>(v), 4); }
    template <class T>
    void u64(const T &v) { le(static_cast<std::uint64_t>(v), 8); }
    void flag(const bool &v) { le(v ? 1 : 0, 1); }

    void
    bytes(const std::uint8_t *data, std::size_t n)
    {
        b.insert(b.end(), data, data + n);
    }

    void
    str(const std::string &s)
    {
        u32(s.size());
        bytes(reinterpret_cast<const std::uint8_t *>(s.data()),
              s.size());
    }

    template <class V>
    void size(const V &vec, std::size_t) { u64(vec.size()); }
    void count(const std::uint64_t &n, std::size_t) { u64(n); }
    void present(const bool &) {}
};

/**
 * Bounds-checked reading cursor: the reading half. Every accessor is
 * a no-op yielding zero once `fail()` has fired, so parse code reads
 * linearly and checks once per section — corrupt input can produce
 * garbage values but never an out-of-bounds access or a surprise
 * exception.
 */
struct Cursor {
    static constexpr bool kReading = true;
    const std::uint8_t *data;
    std::size_t len;
    std::size_t pos = 0;
    bool failed = false;
    std::string error = {};

    bool ok() const { return !failed; }

    void
    fail(const std::string &why)
    {
        if (!failed) {
            failed = true;
            error = why;
        }
    }

    bool
    need(std::size_t n)
    {
        if (failed)
            return false;
        if (len - pos < n) {
            fail("truncated input");
            return false;
        }
        return true;
    }

    std::uint64_t
    le(int width)
    {
        if (!need(width))
            return 0;
        std::uint64_t v = 0;
        for (int i = 0; i < width; ++i)
            v |= static_cast<std::uint64_t>(data[pos++]) << (8 * i);
        return v;
    }

    template <class T>
    void u32(T &v) { v = static_cast<T>(le(4)); }
    template <class T>
    void u64(T &v) { v = static_cast<T>(le(8)); }
    void flag(bool &v) { v = le(1) != 0; }

    void
    bytes(std::uint8_t *out, std::size_t n)
    {
        if (!need(n))
            return;
        std::memcpy(out, data + pos, n);
        pos += n;
    }

    void
    str(std::string &s)
    {
        std::uint32_t n = 0;
        u32(n);
        s.clear();
        if (!need(n))
            return;
        s.assign(reinterpret_cast<const char *>(data + pos), n);
        pos += n;
    }

    void
    count(std::uint64_t &n, std::size_t min_elem_bytes)
    {
        u64(n);
        if (!failed && n > (len - pos) / min_elem_bytes) {
            fail("implausible element count");
            n = 0;
        }
    }

    template <class V>
    void
    size(V &vec, std::size_t min_elem_bytes)
    {
        std::uint64_t n = 0;
        count(n, min_elem_bytes);
        vec.resize(failed ? 0 : n);
    }

    void present(bool &f) { f = true; }
};

// ---------------------------------------------------------------------------
// Section payloads
// ---------------------------------------------------------------------------

template <class IO, class Arch>
void
ioArch(IO &io, Arch &a)
{
    for (auto &r : a.regs)
        io.u64(r);
    io.u64(a.pc);
    io.u64(a.instCount);
    io.u64(a.faultCount);
    io.u64(a.lastFetchLine);
    io.flag(a.halted);
    for (auto &m : a.msrs)
        io.u64(m);
}

template <class IO, class Mem>
void
ioMemMap(IO &io, Mem &mem)
{
    // Written in resident-page (address) order; read back through
    // writeBytes, which materializes a page even when all-zero —
    // exactly right, since the resident-page set is part of the
    // MemoryMap equality contract.
    std::vector<Addr> pages;
    if constexpr (!IO::kReading)
        pages = mem.residentPages();
    std::uint64_t n = pages.size();
    io.count(n, 8 + 1 + MemoryMap::kPageBytes);
    std::array<std::uint8_t, MemoryMap::kPageBytes> page{};
    for (std::uint64_t i = 0; i < n && io.ok(); ++i) {
        Addr base = 0;
        bool kernel = false;
        if constexpr (!IO::kReading) {
            base = pages[i];
            kernel = mem.permAt(base) == MemPerm::kKernel;
            mem.readBytes(base, page.data(), page.size());
        }
        io.u64(base);
        io.flag(kernel);
        io.bytes(page.data(), page.size());
        if constexpr (IO::kReading) {
            if (!io.ok())
                break;
            mem.writeBytes(base, page.data(), page.size());
            if (kernel)
                mem.setPerm(base, MemoryMap::kPageBytes, MemPerm::kKernel);
        }
    }
}

template <class IO, class Arch>
void
ioTaint(IO &io, Arch &a)
{
    for (auto &t : a.regTaint)
        io.u64(t);
    for (auto &t : a.msrTaint)
        io.u64(t);
    // The sparse memory taint travels as an address-sorted list.
    std::vector<std::pair<Addr, TaintWord>> words;
    if constexpr (!IO::kReading) {
        words.assign(a.memTaint.begin(), a.memTaint.end());
        std::sort(words.begin(), words.end());
    }
    io.size(words, 16);
    for (auto &[addr, word] : words) {
        io.u64(addr);
        io.u64(word);
    }
    if constexpr (IO::kReading) {
        if (io.ok()) {
            for (const auto &[addr, word] : words)
                a.memTaint[addr] = word;
        }
    }
}

template <class IO, class Params>
void
ioCacheParams(IO &io, Params &p)
{
    io.str(p.name);
    io.u64(p.sizeBytes);
    io.u32(p.ways);
    io.u32(p.lineBytes);
    io.u32(p.hitLatency);
}

template <class IO, class Snap>
void
ioCacheSnap(IO &io, Snap &s)
{
    io.size(s.lines, 8 + 1 + 8);
    for (auto &line : s.lines) {
        io.u64(line.tag);
        io.flag(line.valid);
        io.u64(line.lastUse);
    }
    io.u64(s.useClock);
    io.u64(s.hits);
    io.u64(s.misses);
    io.u64(s.fills);
}

template <class IO, class Snap>
void
ioHier(IO &io, Snap &snap)
{
    ioCacheParams(io, snap.memParams.l1i);
    ioCacheParams(io, snap.memParams.l1d);
    ioCacheParams(io, snap.memParams.l2);
    io.u32(snap.memParams.dramLatency);
    ioCacheSnap(io, snap.mem.l1i);
    ioCacheSnap(io, snap.mem.l1d);
    ioCacheSnap(io, snap.mem.l2);
}

template <class IO, class Snap>
void
ioPredictor(IO &io, Snap &snap)
{
    auto &p = snap.bpParams;
    io.u32(p.direction.tableBits);
    io.u32(p.direction.historyBits);
    io.u32(p.btb.entries);
    io.u32(p.btb.ways);
    io.u32(p.btb.tagBits);
    io.u32(p.rasEntries);

    auto &d = snap.predictor.direction;
    for (auto *table : {&d.gshare, &d.bimodal, &d.chooser}) {
        io.size(*table, 1);
        io.bytes(table->data(), table->size());
    }
    io.u64(d.history);
    io.u64(d.predicts);
    io.u64(d.gshareChosen);

    auto &t = snap.predictor.btb;
    io.size(t.entries, 8 + 8 + 1 + 8);
    for (auto &e : t.entries) {
        io.u64(e.tag);
        io.u64(e.target);
        io.flag(e.valid);
        io.u64(e.lastUse);
    }
    io.u64(t.useClock);
    io.u64(t.hits);
    io.u64(t.misses);
    io.u64(t.updates);

    auto &r = snap.predictor.ras;
    io.size(r.stack, 8);
    for (auto &a : r.stack)
        io.u64(a);
    io.u32(r.topIdx);
    io.u64(r.pushes);
    io.u64(r.pops);
}

template <class IO, class Threads>
void
ioThreads(IO &io, Threads &threads)
{
    // A thread record is at least the fixed-size arch block plus the
    // page count and taint flag. Extra threads carry their own
    // memory/taint maps only in principle (memory is shared, so they
    // are empty in practice); serializing them keeps the round-trip
    // contract exact.
    io.size(threads, (kNumArchRegs + 4 + kNumMsrRegs) * 8 + 1 + 8 + 1);
    for (auto &t : threads) {
        ioArch(io, t);
        ioMemMap(io, t.mem);
        io.flag(t.hasTaint);
        if (t.hasTaint)
            ioTaint(io, t);
    }
}

/**
 * One section's payload, either direction. An optional section's
 * presence in the file is what sets its snapshot flag on read.
 */
template <class IO, class Snap>
void
ioSection(IO &io, SectionId id, Snap &snap)
{
    switch (id) {
      case kArchSection:
        ioArch(io, snap.arch);
        break;
      case kMemMapSection:
        ioMemMap(io, snap.arch.mem);
        break;
      case kTaintSection:
        io.present(snap.arch.hasTaint);
        ioTaint(io, snap.arch);
        break;
      case kHierSection:
        io.present(snap.hasMem);
        ioHier(io, snap);
        break;
      case kPredictorSection:
        io.present(snap.hasPredictor);
        ioPredictor(io, snap);
        break;
      case kThreadsSection:
        ioThreads(io, snap.extraThreads);
        break;
    }
}

/**
 * The section list, in file order. The writer emits each section
 * whose presence test holds; the reader accepts exactly these ids.
 */
struct Section {
    SectionId id;
    bool (*present)(const SimSnapshot &);
};

constexpr Section kSections[] = {
    {kArchSection, [](const SimSnapshot &) { return true; }},
    {kMemMapSection, [](const SimSnapshot &) { return true; }},
    {kTaintSection,
     [](const SimSnapshot &s) { return s.arch.hasTaint; }},
    {kHierSection, [](const SimSnapshot &s) { return s.hasMem; }},
    {kPredictorSection,
     [](const SimSnapshot &s) { return s.hasPredictor; }},
    {kThreadsSection,
     [](const SimSnapshot &s) { return !s.extraThreads.empty(); }},
};

} // namespace

std::uint32_t
crc32(const std::uint8_t *data, std::size_t len)
{
    // IEEE 802.3 reflected polynomial, nibble-at-a-time table.
    static constexpr std::uint32_t kTable[16] = {
        0x00000000, 0x1DB71064, 0x3B6E20C8, 0x26D930AC,
        0x76DC4190, 0x6B6B51F4, 0x4DB26158, 0x5005713C,
        0xEDB88320, 0xF00F9344, 0xD6D6A3E8, 0xCB61B38C,
        0x9B64C2B0, 0x86D3D2D4, 0xA00AE278, 0xBDBDF21C,
    };
    std::uint32_t crc = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < len; ++i) {
        crc ^= data[i];
        crc = (crc >> 4) ^ kTable[crc & 0xF];
        crc = (crc >> 4) ^ kTable[crc & 0xF];
    }
    return ~crc;
}

void
CkptWriter::put(const SimSnapshot &snap)
{
    buf_.clear();
    Appender out{buf_};

    std::uint32_t sections = 0;
    for (const Section &s : kSections)
        sections += s.present(snap) ? 1 : 0;
    // SMT contexts force schema v2; without them the output is
    // byte-identical to a v1 file (backward-compatible corpus).
    out.u64(kMagic);
    out.u32(snap.extraThreads.empty() ? kSchemaVersion
                                      : kSchemaVersionSmt);
    out.u32(sections);

    std::vector<std::uint8_t> payload;
    for (const Section &s : kSections) {
        if (!s.present(snap))
            continue;
        payload.clear();
        Appender section{payload};
        ioSection(section, s.id, snap);
        out.u32(s.id);
        out.u64(payload.size());
        out.u32(crc32(payload.data(), payload.size()));
        out.bytes(payload.data(), payload.size());
    }
}

bool
CkptWriter::writeFile(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f) {
        NDA_WARN("ckpt: cannot open '%s' for writing", path.c_str());
        return false;
    }
    const std::size_t n = std::fwrite(buf_.data(), 1, buf_.size(), f);
    const int closed = std::fclose(f);
    if (n != buf_.size() || closed != 0) {
        NDA_WARN("ckpt: short write to '%s'", path.c_str());
        std::remove(path.c_str());
        return false;
    }
    return true;
}

bool
CkptReader::parse(const std::uint8_t *data, std::size_t len,
                  SimSnapshot &out)
{
    error_.clear();
    out = SimSnapshot{};

    Cursor header{data, len};
    std::uint64_t magic = 0;
    header.u64(magic);
    if (magic != kMagic) {
        error_ = header.failed ? header.error : "bad magic";
        return false;
    }
    std::uint32_t version = 0;
    header.u32(version);
    if (!header.failed && version != kSchemaVersion &&
        version != kSchemaVersionSmt) {
        error_ = "unsupported schema version " + std::to_string(version);
        return false;
    }
    std::uint32_t sections = 0;
    header.u32(sections);
    if (header.failed) {
        error_ = header.error;
        return false;
    }

    bool saw_arch = false;
    for (std::uint32_t s = 0; s < sections; ++s) {
        std::uint32_t id = 0;
        std::uint64_t plen = 0;
        std::uint32_t want_crc = 0;
        header.u32(id);
        header.u64(plen);
        header.u32(want_crc);
        if (header.failed || len - header.pos < plen) {
            error_ = "truncated section " + std::to_string(id);
            return false;
        }
        const std::uint8_t *payload = data + header.pos;
        header.pos += plen;
        if (crc32(payload, plen) != want_crc) {
            error_ = "CRC mismatch in section " + std::to_string(id);
            return false;
        }

        const bool known = std::any_of(
            std::begin(kSections), std::end(kSections),
            [id](const Section &k) { return k.id == id; });
        if (!known) {
            error_ = "unknown section id " + std::to_string(id);
            return false;
        }
        if (id == kThreadsSection && version < kSchemaVersionSmt) {
            error_ = "THREADS section in a v1 file";
            return false;
        }
        Cursor c{payload, static_cast<std::size_t>(plen)};
        ioSection(c, static_cast<SectionId>(id), out);
        saw_arch |= id == kArchSection;
        if (c.failed) {
            error_ = "section " + std::to_string(id) + ": " + c.error;
            return false;
        }
        if (c.pos != c.len) {
            error_ = "section " + std::to_string(id) +
                     ": trailing bytes";
            return false;
        }
    }
    if (header.pos != len) {
        error_ = "trailing bytes after last section";
        return false;
    }
    if (!saw_arch) {
        error_ = "missing ARCH section";
        return false;
    }
    return true;
}

bool
CkptReader::readFile(const std::string &path, SimSnapshot &out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        error_ = "cannot open '" + path + "'";
        return false;
    }
    std::vector<std::uint8_t> bytes;
    std::uint8_t chunk[1 << 16];
    std::size_t n = 0;
    while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
        bytes.insert(bytes.end(), chunk, chunk + n);
    const bool read_err = std::ferror(f) != 0;
    std::fclose(f);
    if (read_err) {
        error_ = "read error on '" + path + "'";
        return false;
    }
    return parse(bytes.data(), bytes.size(), out);
}

} // namespace nda
