#include "mem/memory_map.hh"

#include <algorithm>
#include <cstring>

namespace nda {

std::vector<Addr>
MemoryMap::residentPages() const
{
    std::vector<Addr> bases;
    bases.reserve(pages_.size());
    for (const auto &entry : pages_)
        bases.push_back(entry.first);
    std::sort(bases.begin(), bases.end());
    return bases;
}

MemoryMap::Page &
MemoryMap::pageFor(Addr addr)
{
    return pages_[pageBase(addr)];
}

const MemoryMap::Page *
MemoryMap::pageForConst(Addr addr) const
{
    auto it = pages_.find(pageBase(addr));
    return it == pages_.end() ? nullptr : &it->second;
}

// read/write go through the span copies (one page lookup per page
// touched) and pack the bytes little-endian whatever the host order.

RegVal
MemoryMap::read(Addr addr, unsigned size) const
{
    std::uint8_t bytes[sizeof(RegVal)] = {};
    readBytes(addr, bytes, size);
    RegVal value = 0;
    for (unsigned i = size; i-- > 0;)
        value = value << 8 | bytes[i];
    return value;
}

void
MemoryMap::write(Addr addr, RegVal value, unsigned size)
{
    std::uint8_t bytes[sizeof(RegVal)] = {};
    for (unsigned i = 0; i < size; ++i)
        bytes[i] = static_cast<std::uint8_t>(value >> (8 * i));
    writeBytes(addr, bytes, size);
}

void
MemoryMap::writeBytes(Addr addr, const std::uint8_t *bytes, std::size_t len)
{
    for (std::size_t n = 0; len > 0; addr += n, bytes += n, len -= n) {
        const Addr off = addr & (kPageBytes - 1);
        n = std::min<std::size_t>(len, kPageBytes - off);
        std::memcpy(pageFor(addr).bytes.data() + off, bytes, n);
    }
}

void
MemoryMap::readBytes(Addr addr, std::uint8_t *out, std::size_t len) const
{
    for (std::size_t n = 0; len > 0; addr += n, out += n, len -= n) {
        const Addr off = addr & (kPageBytes - 1);
        n = std::min<std::size_t>(len, kPageBytes - off);
        if (const Page *page = pageForConst(addr))
            std::memcpy(out, page->bytes.data() + off, n);
        else
            std::memset(out, 0, n);
    }
}

void
MemoryMap::setPerm(Addr addr, std::size_t len, MemPerm perm)
{
    const Addr first = pageBase(addr);
    const Addr last = pageBase(addr + (len ? len - 1 : 0));
    for (Addr base = first; base <= last; base += kPageBytes)
        pages_[base].perm = perm;
}

MemPerm
MemoryMap::permAt(Addr addr) const
{
    const Page *page = pageForConst(addr);
    return page ? page->perm : MemPerm::kUser;
}

bool
MemoryMap::accessAllowed(Addr addr, unsigned size, CpuMode mode) const
{
    if (mode == CpuMode::kKernel)
        return true;
    const Addr first = pageBase(addr);
    const Addr last = pageBase(addr + (size ? size - 1 : 0));
    for (Addr base = first; base <= last; base += kPageBytes) {
        if (permAt(base) == MemPerm::kKernel)
            return false;
    }
    return true;
}

void
MemoryMap::clear()
{
    pages_.clear();
}

MemoryMap::PageView
MemoryMap::viewPage(Addr addr)
{
    auto it = pages_.find(pageBase(addr));
    if (it == pages_.end())
        return {};
    return {it->second.bytes.data(),
            it->second.perm == MemPerm::kKernel};
}

std::uint8_t *
MemoryMap::pageDataForWrite(Addr addr)
{
    return pageFor(addr).bytes.data();
}

} // namespace nda
