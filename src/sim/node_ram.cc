#include "node_ram.h"

#include <algorithm>
#include <cstring>

#include "util/logging.h"

namespace ct::sim {

alignas(64) const std::uint8_t NodeRam::zeroFrame[kPageBytes] = {};

NodeRam::NodeRam(Bytes size_bytes, Bytes alloc_skew_bytes)
    : allocSkew(alloc_skew_bytes)
{
    if (size_bytes == 0)
        util::fatal("NodeRam: zero size");
    capacity = size_bytes;
    wordEnd = capacity >= 8 ? capacity - 7 : 0;
}

Addr
NodeRam::alloc(Bytes bytes, Bytes align)
{
    if (!isPowerOfTwo(align))
        util::fatal("NodeRam::alloc: alignment not a power of two");
    Addr base = (next + align - 1) & ~(static_cast<Addr>(align) - 1);
    if (bytes > capacity || base > capacity - bytes)
        util::fatal("NodeRam::alloc: out of memory (", capacity,
                    " bytes total, need ", bytes, " at ", base, ")");
    next = base + bytes + allocSkew;
    return base;
}

void
NodeRam::reset()
{
    next = 0;
    pages.clear();
    for (TransEntry &entry : translations)
        entry = TransEntry{};
}

void
NodeRam::outOfRange(Addr addr, Bytes bytes) const
{
    util::fatal("NodeRam: access at ", addr, "+", bytes,
                " beyond size ", capacity);
}

NodeRam::TransEntry &
NodeRam::translate(Addr page_index) const
{
    TransEntry &entry =
        translations[page_index & (kTransEntries - 1)];
    if (entry.pageIndexPlusOne != page_index + 1) {
        auto it = pages.find(page_index);
        entry.pageIndexPlusOne = page_index + 1;
        // The zero frame is never written: every store through the
        // cache compares against it first.
        entry.data = it != pages.end()
                         ? it->second.get()
                         : const_cast<std::uint8_t *>(zeroFrame);
    }
    return entry;
}

void
NodeRam::readBytes(Addr addr, void *out, Bytes bytes) const
{
    auto *dst = static_cast<std::uint8_t *>(out);
    while (bytes > 0) {
        Addr page_index = addr / kPageBytes;
        Bytes offset = addr % kPageBytes;
        Bytes chunk = std::min<Bytes>(bytes, kPageBytes - offset);
        std::memcpy(dst, translate(page_index).data + offset, chunk);
        addr += chunk;
        dst += chunk;
        bytes -= chunk;
    }
}

void
NodeRam::writeBytes(Addr addr, const void *in, Bytes bytes)
{
    auto *src = static_cast<const std::uint8_t *>(in);
    while (bytes > 0) {
        Addr page_index = addr / kPageBytes;
        Bytes offset = addr % kPageBytes;
        Bytes chunk = std::min<Bytes>(bytes, kPageBytes - offset);
        TransEntry &entry = translate(page_index);
        if (entry.data != zeroFrame) {
            std::memcpy(entry.data + offset, src, chunk);
        } else if (std::any_of(src, src + chunk,
                               [](std::uint8_t b) { return b != 0; })) {
            // The first nonzero store materializes the page; a zero
            // store leaves it virtual, since it already reads zero.
            auto &data = pages[page_index];
            data = std::make_unique<std::uint8_t[]>(kPageBytes);
            entry.data = data.get();
            std::memcpy(entry.data + offset, src, chunk);
        }
        addr += chunk;
        src += chunk;
        bytes -= chunk;
    }
}

std::uint64_t
NodeRam::readWordSlow(Addr addr) const
{
    std::uint64_t value;
    readBytes(addr, &value, 8);
    return value;
}

void
NodeRam::writeWordSlow(Addr addr, std::uint64_t value)
{
    writeBytes(addr, &value, 8);
}

} // namespace ct::sim
