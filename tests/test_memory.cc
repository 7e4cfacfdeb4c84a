/**
 * @file
 * Tests for the memory substrate: sparse memory map with permissions,
 * the set-associative cache, and the two-level hierarchy timing.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include <vector>

#include "mem/cache.hh"
#include "mem/hierarchy.hh"
#include "mem/memory_map.hh"

namespace nda {
namespace {

TEST(MemoryMap, ReadWriteSizes)
{
    MemoryMap m;
    m.write(0x100, 0x1122334455667788ULL, 8);
    EXPECT_EQ(m.read(0x100, 8), 0x1122334455667788ULL);
    EXPECT_EQ(m.read(0x100, 4), 0x55667788u);
    EXPECT_EQ(m.read(0x104, 4), 0x11223344u);
    EXPECT_EQ(m.read(0x100, 1), 0x88u);
}

TEST(MemoryMap, UnmappedReadsZero)
{
    MemoryMap m;
    EXPECT_EQ(m.read(0xABCDE, 8), 0u);
    EXPECT_EQ(m.pageCount(), 0u);
}

TEST(MemoryMap, CrossPageAccess)
{
    MemoryMap m;
    const Addr boundary = 2 * MemoryMap::kPageBytes - 4;
    m.write(boundary, 0xAABBCCDDEEFF0011ULL, 8);
    EXPECT_EQ(m.read(boundary, 8), 0xAABBCCDDEEFF0011ULL);
    EXPECT_EQ(m.pageCount(), 2u);

    // Across a resident and an absent page: the absent half reads as
    // zeros and the read creates no page.
    constexpr Addr kPage = MemoryMap::kPageBytes;
    const Addr tail = 3 * kPage - 4;
    m.write(tail - 4, 0x1122334455667788ULL, 8);
    const std::size_t pages = m.pageCount();
    EXPECT_EQ(m.read(tail, 8), 0x11223344ULL);
    EXPECT_EQ(m.pageCount(), pages);

    // Across two absent pages: the write creates exactly those two.
    const Addr fresh = 10 * kPage - 3;
    m.write(fresh, 0x0102030405060708ULL, 8);
    EXPECT_EQ(m.pageCount(), pages + 2);
    EXPECT_EQ(m.read(fresh, 8), 0x0102030405060708ULL);
    const std::vector<Addr> resident = m.residentPages();
    EXPECT_EQ(std::count(resident.begin(), resident.end(), 9 * kPage), 1);
    EXPECT_EQ(std::count(resident.begin(), resident.end(), 10 * kPage),
              1);
}

TEST(MemoryMap, BulkBytes)
{
    MemoryMap m;
    const std::uint8_t bytes[] = {1, 2, 3, 4, 5};
    m.writeBytes(0x7FFE, bytes, 5); // crosses a page
    std::uint8_t out[5] = {};
    m.readBytes(0x7FFE, out, 5);
    for (int i = 0; i < 5; ++i)
        EXPECT_EQ(out[i], bytes[i]);

    // An unaligned span over three pages: the last 3 bytes of one,
    // all of the next, the first 5 of the third. With the middle page
    // not resident, it reads as zeros and stays absent.
    constexpr Addr kPage = MemoryMap::kPageBytes;
    const Addr first = 0x10000 + kPage - 3;
    const std::size_t len = 3 + kPage + 5;
    std::vector<std::uint8_t> pattern(len);
    for (std::size_t i = 0; i < len; ++i)
        pattern[i] = static_cast<std::uint8_t>(i % 251 + 1);
    m.writeBytes(first, pattern.data(), 3);
    m.writeBytes(first + 3 + kPage, pattern.data() + 3 + kPage, 5);
    const std::size_t pages = m.pageCount();
    std::vector<std::uint8_t> span(len, 0xEE);
    m.readBytes(first, span.data(), len);
    EXPECT_EQ(m.pageCount(), pages) << "reading created a page";
    for (std::size_t i = 0; i < len; ++i) {
        const bool resident = i < 3 || i >= 3 + kPage;
        ASSERT_EQ(span[i], resident ? pattern[i] : 0) << "byte " << i;
    }

    // Writing the whole span fills in the middle page.
    m.writeBytes(first, pattern.data(), len);
    EXPECT_EQ(m.pageCount(), pages + 1);
    m.readBytes(first, span.data(), len);
    EXPECT_EQ(span, pattern);
    EXPECT_EQ(m.read(first + 3 + kPage - 1, 1), pattern[3 + kPage - 1]);
}

TEST(MemoryMap, PermissionsPerPage)
{
    MemoryMap m;
    m.setPerm(0x4000, 100, MemPerm::kKernel);
    EXPECT_EQ(m.permAt(0x4000), MemPerm::kKernel);
    EXPECT_EQ(m.permAt(0x4000 + MemoryMap::kPageBytes), MemPerm::kUser);
    EXPECT_FALSE(m.accessAllowed(0x4000, 1, CpuMode::kUser));
    EXPECT_TRUE(m.accessAllowed(0x4000, 1, CpuMode::kKernel));
    // Access touching both a user and a kernel page is denied.
    EXPECT_FALSE(m.accessAllowed(0x4000 - 2, 4, CpuMode::kUser));
}

TEST(MemoryMap, ClearDropsEverything)
{
    MemoryMap m;
    m.write(0x100, 42, 8);
    m.setPerm(0x100, 8, MemPerm::kKernel);
    m.clear();
    EXPECT_EQ(m.read(0x100, 8), 0u);
    EXPECT_EQ(m.permAt(0x100), MemPerm::kUser);
}

CacheParams
tinyCache()
{
    CacheParams p;
    p.name = "tiny";
    p.sizeBytes = 4 * 64;  // 4 lines
    p.ways = 2;            // 2 sets x 2 ways
    p.lineBytes = 64;
    p.hitLatency = 4;
    return p;
}

TEST(Cache, MissThenHit)
{
    Cache c(tinyCache());
    EXPECT_FALSE(c.access(0x0));
    EXPECT_TRUE(c.access(0x0));
    EXPECT_TRUE(c.access(0x3F)) << "same line";
    EXPECT_FALSE(c.access(0x40)) << "next line";
    EXPECT_EQ(c.hits(), 2u);
    EXPECT_EQ(c.misses(), 2u);
}

TEST(Cache, LruEviction)
{
    Cache c(tinyCache()); // set = (addr/64) % 2
    // Lines 0x000, 0x080, 0x100 all map to set 0 (2 ways).
    c.access(0x000);
    c.access(0x080);
    c.access(0x000);      // refresh 0x000 -> LRU victim is 0x080
    c.access(0x100);      // evicts 0x080
    EXPECT_TRUE(c.probe(0x000));
    EXPECT_FALSE(c.probe(0x080));
    EXPECT_TRUE(c.probe(0x100));
}

TEST(Cache, ProbeDoesNotMutate)
{
    Cache c(tinyCache());
    EXPECT_FALSE(c.probe(0x0));
    EXPECT_FALSE(c.probe(0x0)) << "probe must not allocate";
    c.access(0x000);
    c.access(0x080);
    // Probing 0x000 must not refresh its LRU position:
    c.probe(0x000);
    c.access(0x100); // should evict 0x000 (the true LRU)
    EXPECT_FALSE(c.probe(0x000));
    EXPECT_TRUE(c.probe(0x080));
}

TEST(Cache, FlushInvalidates)
{
    Cache c(tinyCache());
    c.access(0x0);
    c.flush(0x0);
    EXPECT_FALSE(c.probe(0x0));
    c.access(0x0);
    c.flushAll();
    EXPECT_FALSE(c.probe(0x0));
}

TEST(Cache, FillWithoutAccessCounting)
{
    Cache c(tinyCache());
    c.fill(0x0);
    EXPECT_TRUE(c.probe(0x0));
    EXPECT_EQ(c.hits(), 0u);
    EXPECT_EQ(c.misses(), 0u);
}

TEST(Hierarchy, Table3Latencies)
{
    MemHierarchy h;
    // Cold: L2 round trip + DRAM = 140 cycles (paper: ~140-cycle
    // cache-channel signal, Fig 4).
    auto r1 = h.dataAccess(0x1000);
    EXPECT_EQ(r1.level, HitLevel::kMemory);
    EXPECT_EQ(r1.latency, 140u);
    // Now in L1.
    auto r2 = h.dataAccess(0x1000);
    EXPECT_EQ(r2.level, HitLevel::kL1);
    EXPECT_EQ(r2.latency, 4u);
    // Evict from L1 only -> L2 hit at 40.
    h.l1d().flush(0x1000);
    auto r3 = h.dataAccess(0x1000);
    EXPECT_EQ(r3.level, HitLevel::kL2);
    EXPECT_EQ(r3.latency, 40u);
}

TEST(Hierarchy, PeekIsInvisible)
{
    MemHierarchy h;
    auto p1 = h.dataPeek(0x2000);
    EXPECT_EQ(p1.level, HitLevel::kMemory);
    // The peek must not have filled anything:
    auto p2 = h.dataPeek(0x2000);
    EXPECT_EQ(p2.level, HitLevel::kMemory);
    EXPECT_FALSE(h.l1d().probe(0x2000));
    EXPECT_FALSE(h.l2().probe(0x2000));
}

TEST(Hierarchy, FillThenPeekHits)
{
    MemHierarchy h;
    h.dataFill(0x3000);
    EXPECT_EQ(h.dataPeek(0x3000).level, HitLevel::kL1);
}

TEST(Hierarchy, FlushLineRemovesAllLevels)
{
    MemHierarchy h;
    h.dataAccess(0x4000);
    h.flushLine(0x4000);
    EXPECT_EQ(h.dataPeek(0x4000).level, HitLevel::kMemory);
}

TEST(Hierarchy, InstAndDataAreSplitL1)
{
    MemHierarchy h;
    h.instAccess(0x5000);
    // The same line is not in the L1D (split caches), but it is in
    // the unified L2.
    EXPECT_FALSE(h.l1d().probe(0x5000));
    EXPECT_EQ(h.dataPeek(0x5000).level, HitLevel::kL2);
}

TEST(Hierarchy, OffChipPredicate)
{
    MemRequestResult r;
    r.level = HitLevel::kMemory;
    EXPECT_TRUE(r.offChip());
    r.level = HitLevel::kL2;
    EXPECT_FALSE(r.offChip());
}

} // namespace
} // namespace nda
