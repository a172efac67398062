/**
 * @file
 * Backing storage for one node's local memory. The timing models
 * (MemorySystem) are tag/occupancy-only; NodeRam holds the actual
 * bytes so that communication runs move real data and tests can check
 * end-to-end correctness bit-exactly.
 *
 * Storage is sparse and page-granular: a page materializes on its
 * first nonzero store. Until then it is virtual -- reads return zero
 * from one shared, immutable zero frame and zero stores change
 * nothing -- so host memory tracks the pages that hold data, not the
 * configured capacity or the addresses a walk merely touches.
 */

#ifndef CT_SIM_NODE_RAM_H
#define CT_SIM_NODE_RAM_H

#include <cstdint>
#include <cstring>
#include <memory>
#include <unordered_map>

#include "sim/addr.h"

namespace ct::sim {

/** Flat byte-addressable memory with a bump allocator. */
class NodeRam
{
  public:
    /**
     * @param size_bytes capacity (address-space bound; untouched
     *        pages cost nothing)
     * @param alloc_skew_bytes padding inserted between allocations to
     *        stagger arrays across DRAM banks (compilers pad large
     *        arrays the same way to avoid bank/cache aliasing)
     */
    explicit NodeRam(Bytes size_bytes, Bytes alloc_skew_bytes = 0);

    Bytes size() const { return capacity; }

    /** Allocate @p bytes aligned to @p align; fatal on exhaustion. */
    Addr alloc(Bytes bytes, Bytes align = 64);

    /** Release everything allocated so far (and drop all pages). */
    void reset();

    // Word accessors. The bodies below inline the hot path -- a
    // bounds check plus one direct-mapped translation-cache probe --
    // because every element a kernel moves goes through here.
    std::uint64_t readWord(Addr addr) const;
    void writeWord(Addr addr, std::uint64_t value);

    double readDouble(Addr addr) const;
    void writeDouble(Addr addr, double value);

    /** Pages currently materialized (those that took a nonzero
     *  store). */
    std::size_t residentPages() const { return pages.size(); }

    /** Page granularity of the sparse store. */
    static constexpr Bytes pageBytes() { return kPageBytes; }

  private:
    static constexpr Bytes kPageBytes = 4096;
    /** Direct-mapped page-translation cache entries (power of two). */
    static constexpr std::size_t kTransEntries = 256;

    /** Cached page-index -> data translation (+1 so 0 = empty). A
     *  virtual page translates to zeroFrame. */
    struct TransEntry
    {
        Addr pageIndexPlusOne = 0;
        std::uint8_t *data = nullptr;
    };

    /** What every virtual page reads as. Read-only: every store
     *  compares its page against it first, so it is never written
     *  and NodeRams on any thread may share it. */
    alignas(64) static const std::uint8_t zeroFrame[kPageBytes];

    /** Bounds check of [addr, addr + 8) as one compare that stays
     *  exact when addr + 8 would wrap past 2^64. */
    void
    checkWord(Addr addr) const
    {
        if (addr >= wordEnd)
            outOfRange(addr, 8);
    }

    [[noreturn]] void outOfRange(Addr addr, Bytes bytes) const;

    /** Translation-cache probe; nullptr on miss. */
    std::uint8_t *
    cachedPage(Addr page_index) const
    {
        const TransEntry &entry =
            translations[page_index & (kTransEntries - 1)];
        return entry.pageIndexPlusOne == page_index + 1 ? entry.data
                                                        : nullptr;
    }

    /** Out-of-line tails for translation misses / page-crossing. */
    std::uint64_t readWordSlow(Addr addr) const;
    void writeWordSlow(Addr addr, std::uint64_t value);

    /** The translation-cache entry of @p page_index, filled on a
     *  miss (with zeroFrame for a virtual page). */
    TransEntry &translate(Addr page_index) const;

    void readBytes(Addr addr, void *out, Bytes bytes) const;
    void writeBytes(Addr addr, const void *in, Bytes bytes);

    std::unordered_map<Addr, std::unique_ptr<std::uint8_t[]>> pages;
    mutable TransEntry translations[kTransEntries];
    Bytes capacity = 0;
    /** First address at which a word no longer fits (0: none fits). */
    Addr wordEnd = 0;
    Bytes allocSkew = 0;
    Addr next = 0;
};

inline std::uint64_t
NodeRam::readWord(Addr addr) const
{
    checkWord(addr);
    if (addr % kPageBytes <= kPageBytes - 8) {
        if (const std::uint8_t *page = cachedPage(addr / kPageBytes)) {
            std::uint64_t value;
            std::memcpy(&value, page + addr % kPageBytes, 8);
            return value;
        }
    }
    return readWordSlow(addr);
}

inline void
NodeRam::writeWord(Addr addr, std::uint64_t value)
{
    checkWord(addr);
    if (addr % kPageBytes <= kPageBytes - 8) {
        std::uint8_t *page = cachedPage(addr / kPageBytes);
        if (page == zeroFrame) {
            // A virtual page already reads zero; only a nonzero
            // store materializes it (in the slow path).
            if (value == 0)
                return;
        } else if (page) {
            std::memcpy(page + addr % kPageBytes, &value, 8);
            return;
        }
    }
    writeWordSlow(addr, value);
}

inline double
NodeRam::readDouble(Addr addr) const
{
    std::uint64_t bits = readWord(addr);
    double value;
    std::memcpy(&value, &bits, 8);
    return value;
}

inline void
NodeRam::writeDouble(Addr addr, double value)
{
    std::uint64_t bits;
    std::memcpy(&bits, &value, 8);
    writeWord(addr, bits);
}

} // namespace ct::sim

#endif // CT_SIM_NODE_RAM_H
