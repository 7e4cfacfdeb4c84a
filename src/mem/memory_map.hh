/**
 * @file
 * Sparse functional memory with page-granular protection domains.
 *
 * This is the architectural backing store: stores become visible here
 * only at commit. Kernel pages model the privileged memory that
 * Meltdown-class chosen-code attacks target (paper §4.3).
 */

#ifndef NDASIM_MEM_MEMORY_MAP_HH
#define NDASIM_MEM_MEMORY_MAP_HH

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hh"

namespace nda {

/** Sparse byte-addressable memory, 4 KiB pages allocated on demand. */
class MemoryMap
{
  public:
    static constexpr Addr kPageBytes = 4096;

    /** Read `size` (at most 8) bytes, little-endian and
     *  zero-extended; unmapped bytes read as 0 and no page is created. */
    RegVal read(Addr addr, unsigned size) const;

    /** Write the low `size` (at most 8) bytes of `value`. */
    void write(Addr addr, RegVal value, unsigned size);

    /** Bulk-initialize a span, one page lookup per page touched. */
    void writeBytes(Addr addr, const std::uint8_t *bytes, std::size_t len);

    /** Read a span into `out`, one page lookup per page touched;
     *  unmapped bytes are 0 and no page is created. */
    void readBytes(Addr addr, std::uint8_t *out, std::size_t len) const;

    /** Set protection on all pages overlapping [addr, addr+len). */
    void setPerm(Addr addr, std::size_t len, MemPerm perm);

    /** Protection of the page containing addr (kUser if unmapped). */
    MemPerm permAt(Addr addr) const;

    /**
     * True if an access of `size` bytes at `addr` from `mode` is
     * allowed on every touched page.
     */
    bool accessAllowed(Addr addr, unsigned size, CpuMode mode) const;

    /** Drop all contents and permissions. */
    void clear();

    // --- Interpreter fast path -----------------------------------------
    // The threaded run loop caches one of these per run as a last-page
    // translation entry, folding the permission check into `kernel`.
    // Pointers stay valid across insertions (unordered_map is
    // node-based); they are invalidated only by clear().

    /** Raw view of the page containing `page_base` (if resident). */
    struct PageView {
        std::uint8_t *bytes = nullptr; ///< null: page not resident
        bool kernel = false;           ///< page faults in user mode
    };

    /**
     * Look up the page containing `addr` without allocating — loads
     * from absent pages must read 0, not materialize a page (the
     * resident-page set is part of the equality contract above).
     */
    PageView viewPage(Addr addr);

    /** Byte storage of the page containing `addr`, allocating it on
     *  demand (store fast path; permissions checked by the caller). */
    std::uint8_t *pageDataForWrite(Addr addr);

    /** Number of resident pages (for tests). */
    std::size_t pageCount() const { return pages_.size(); }

    /**
     * Base addresses of all resident pages, sorted ascending. The
     * serializer (ckpt/serializer.hh) walks this to emit a canonical
     * byte stream — unordered_map iteration order must never leak
     * into a checkpoint file.
     */
    std::vector<Addr> residentPages() const;

    /**
     * Exact equality of resident pages (contents + permissions).
     * Used by the snapshot layer: two maps produced by the same write
     * sequence have the same resident-page set, so page-for-page
     * comparison is the bit-identity contract, not a semantic one (a
     * map holding an explicit all-zero user page differs from one
     * where the page was never touched).
     */
    bool operator==(const MemoryMap &) const = default;

  private:
    struct Page {
        std::array<std::uint8_t, kPageBytes> bytes{};
        MemPerm perm = MemPerm::kUser;

        bool operator==(const Page &) const = default;
    };

    static Addr pageBase(Addr addr) { return addr & ~(kPageBytes - 1); }

    Page &pageFor(Addr addr);
    const Page *pageForConst(Addr addr) const;

    std::unordered_map<Addr, Page> pages_;
};

} // namespace nda

#endif // NDASIM_MEM_MEMORY_MAP_HH
