/**
 * @file
 * Backing storage for one node's local memory. The timing models
 * (MemorySystem) are tag/occupancy-only; NodeRam holds the actual
 * bytes so that communication runs move real data and tests can check
 * end-to-end correctness bit-exactly.
 *
 * Storage is sparse and page-granular: a page materializes on first
 * write, reads of never-written pages return zero (the old calloc
 * semantics), and host memory tracks the bytes actually touched, not
 * the configured capacity. Measurement walks additionally bound their
 * residency with a fixed-capacity page window (streaming mode), so a
 * stride sweep's address footprint never turns into host memory.
 */

#ifndef CT_SIM_NODE_RAM_H
#define CT_SIM_NODE_RAM_H

#include <cstdint>
#include <cstring>
#include <deque>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

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

    // Streaming (bounded-residency) mode -- used by measurement
    // walks whose address footprint exceeds what should ever be
    // host-resident. With a limit set, materialized pages are
    // recycled FIFO once more than @p max_pages are live; a recycled
    // page that is touched again reads as zero. Callers must
    // therefore follow single-touch discipline (write an element,
    // consume it, never revisit) or pin the ranges they re-read.

    /** Cap live pages; 0 restores exact (unbounded) retention. */
    void setResidencyLimit(std::size_t max_pages);

    /** Exclude [addr, addr+bytes) from recycling (index arrays and
     *  other ranges that are legitimately re-read). */
    void pinRange(Addr addr, Bytes bytes);

    /** Pages currently materialized. */
    std::size_t residentPages() const { return pages.size(); }

    /** High-water mark of residentPages() since construction. */
    std::size_t peakResidentPages() const { return peakResident; }

    /** Pages recycled by the residency window so far. */
    std::uint64_t recycledPages() const { return recycled; }

    /** Page granularity of the sparse store. */
    static constexpr Bytes pageBytes() { return kPageBytes; }

  private:
    static constexpr Bytes kPageBytes = 4096;
    /** Direct-mapped page-translation cache entries (power of two). */
    static constexpr std::size_t kTransEntries = 256;

    struct Page
    {
        std::unique_ptr<std::uint8_t[]> data;
        bool pinned = false;
    };

    /** Cached page-index -> data translation (+1 so 0 = empty). */
    struct TransEntry
    {
        Addr pageIndexPlusOne = 0;
        std::uint8_t *data = nullptr;
    };

    /** Bounds check of [addr, addr + bytes) that stays exact when
     *  addr + bytes would wrap past 2^64. */
    void
    checkRange(Addr addr, Bytes bytes) const
    {
        if (bytes > capacity || addr > capacity - bytes)
            outOfRange(addr, bytes);
    }

    /** checkRange(addr, 8) as one compare, for the word accessors. */
    void
    checkWord(Addr addr) const
    {
        if (addr >= wordEnd)
            outOfRange(addr, 8);
    }

    [[noreturn]] void outOfRange(Addr addr, Bytes bytes) const;
    bool isPinned(Addr page_index) const;

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

    /** Page data for @p page_index, or nullptr if not materialized. */
    const std::uint8_t *peekPage(Addr page_index) const;

    /** Page data for @p page_index, materializing (and possibly
     *  recycling an old page) as needed. */
    std::uint8_t *touchPage(Addr page_index);

    void evictToLimit();
    void dropTranslation(Addr page_index);

    void readBytes(Addr addr, void *out, Bytes bytes) const;
    void writeBytes(Addr addr, const void *in, Bytes bytes);

    std::unordered_map<Addr, Page> pages;
    /** Materialization order of unpinned pages (recycling FIFO). */
    std::deque<Addr> recycleQueue;
    std::vector<std::pair<Addr, Addr>> pinnedRanges;
    mutable TransEntry translations[kTransEntries];
    Bytes capacity = 0;
    /** First address at which a word no longer fits (0: none fits). */
    Addr wordEnd = 0;
    Bytes allocSkew = 0;
    Addr next = 0;
    std::size_t residencyLimit = 0;
    std::size_t peakResident = 0;
    std::uint64_t recycled = 0;
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
        // The cache only holds materialized pages, so a hit may be
        // written in place.
        if (std::uint8_t *page = cachedPage(addr / kPageBytes)) {
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
