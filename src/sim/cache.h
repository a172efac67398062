/**
 * @file
 * Set-associative first-level data cache model with the write policies
 * found on the studied nodes: write-around (T3D default configuration)
 * and write-through (Paragon under SUNMOS); write-back is provided for
 * completeness and ablations.
 *
 * The cache tracks only tags, not data; the surrounding MemorySystem
 * translates hit/miss outcomes into cycle costs.
 */

#ifndef CT_SIM_CACHE_H
#define CT_SIM_CACHE_H

#include <cstdint>
#include <vector>

#include "sim/addr.h"

namespace ct::sim {

/** What the cache does with stores. */
enum class WritePolicy {
    WriteAround, ///< stores bypass the cache entirely (T3D)
    WriteThrough, ///< stores update cache on hit, always go to memory
    WriteBack,   ///< stores dirty the line; memory updated on eviction
};

/** Geometry and policy of the cache. */
struct CacheConfig
{
    Bytes sizeBytes = 8192;
    Bytes lineBytes = 32;
    unsigned associativity = 1;
    WritePolicy writePolicy = WritePolicy::WriteAround;
    /** Allocate a line on a store miss (only for write-back). */
    bool allocateOnWriteMiss = false;
};

/** Hit/miss counters. */
struct CacheStats
{
    std::uint64_t loadHits = 0;
    std::uint64_t loadMisses = 0;
    std::uint64_t storeHits = 0;
    std::uint64_t storeMisses = 0;
    std::uint64_t writeBacks = 0;
    std::uint64_t invalidations = 0;
};

/** Outcome of a load access. */
struct CacheLoadResult
{
    bool hit = false;
    /** A line fill from memory is required (always true on a miss). */
    bool fill = false;
    /** A dirty line was evicted and must be written back first. */
    bool writeBack = false;
    Addr writeBackLine = 0;
};

/** Outcome of a store access. */
struct CacheStoreResult
{
    bool hit = false;
    /** The store must be sent to memory now (through/around). */
    bool toMemory = false;
    /** A line fill is required (write-allocate miss). */
    bool fill = false;
    bool writeBack = false;
    Addr writeBackLine = 0;
};

/**
 * LRU set-associative tag store. load() and store() run once per
 * simulated word and are defined inline below; line and set lookups
 * use shifts and masks fixed at construction.
 */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    /** Access for a load of one word at @p addr. */
    CacheLoadResult load(Addr addr);

    /** Access for a store of one word at @p addr. */
    CacheStoreResult store(Addr addr);

    /** Invalidate the line containing @p addr (deposit-engine
     *  coherence on the T3D: incoming remote stores invalidate line
     *  by line). Dirty data is dropped: callers that need the write
     *  back must use load/store results instead. */
    void invalidateLine(Addr addr);

    /** Invalidate everything (synchronization-point flush). */
    void invalidateAll();

    /** True if the line containing @p addr is resident. */
    bool contains(Addr addr) const;

    const CacheStats &stats() const { return counters; }
    const CacheConfig &config() const { return cfg; }

  private:
    struct Line
    {
        Addr tag = 0;
        bool valid = false;
        bool dirty = false;
        std::uint64_t lastUse = 0;
    };

    Addr lineAddr(Addr addr) const { return addr & lineMask; }

    std::size_t
    setIndex(Addr line_addr) const
    {
        return static_cast<std::size_t>((line_addr >> lineShift) &
                                        setMask);
    }

    Line *
    findLine(Addr line_addr)
    {
        Line *set = &lines[setIndex(line_addr) * cfg.associativity];
        for (unsigned way = 0; way < cfg.associativity; ++way) {
            if (set[way].valid && set[way].tag == line_addr)
                return &set[way];
        }
        return nullptr;
    }

    const Line *
    findLine(Addr line_addr) const
    {
        return const_cast<Cache *>(this)->findLine(line_addr);
    }

    /** Pick the LRU victim in the set of @p line_addr. */
    Line &victim(Addr line_addr);

    /** Fill @p line_addr into its set's victim way; reports a dirty
     *  eviction through @p write_back / @p write_back_line. */
    void
    allocate(Addr line_addr, bool dirty, bool &write_back,
             Addr &write_back_line)
    {
        Line &slot = victim(line_addr);
        if (slot.valid && slot.dirty) {
            ++counters.writeBacks;
            write_back = true;
            write_back_line = slot.tag;
        }
        slot.tag = line_addr;
        slot.valid = true;
        slot.dirty = dirty;
        slot.lastUse = useClock;
    }

    CacheConfig cfg;
    CacheStats counters;
    std::vector<Line> lines; // numSets x associativity
    unsigned lineShift = 0;  ///< log2(lineBytes)
    Addr lineMask = 0;       ///< clears the offset within a line
    Addr setMask = 0;        ///< numSets - 1
    std::uint64_t useClock = 0;
};

inline CacheLoadResult
Cache::load(Addr addr)
{
    ++useClock;
    Addr la = lineAddr(addr);
    if (Line *line = findLine(la)) {
        ++counters.loadHits;
        line->lastUse = useClock;
        return {true, false, false, 0};
    }
    ++counters.loadMisses;
    CacheLoadResult result{false, true, false, 0};
    allocate(la, false, result.writeBack, result.writeBackLine);
    return result;
}

inline CacheStoreResult
Cache::store(Addr addr)
{
    ++useClock;
    Addr la = lineAddr(addr);
    Line *line = findLine(la);
    CacheStoreResult result;
    switch (cfg.writePolicy) {
      case WritePolicy::WriteAround:
        // The store bypasses the cache; a resident copy goes stale
        // and is invalidated to keep loads coherent.
        result.hit = line != nullptr;
        result.toMemory = true;
        if (line) {
            ++counters.storeHits;
            line->valid = false;
            ++counters.invalidations;
        } else {
            ++counters.storeMisses;
        }
        return result;
      case WritePolicy::WriteThrough:
        result.toMemory = true;
        if (line) {
            ++counters.storeHits;
            result.hit = true;
            line->lastUse = useClock;
        } else {
            ++counters.storeMisses;
        }
        return result;
      case WritePolicy::WriteBack:
        break;
    }
    // Write-back (the constructor admits no other policy).
    if (line) {
        ++counters.storeHits;
        result.hit = true;
        line->dirty = true;
        line->lastUse = useClock;
        return result;
    }
    ++counters.storeMisses;
    if (!cfg.allocateOnWriteMiss) {
        result.toMemory = true;
        return result;
    }
    result.fill = true;
    allocate(la, true, result.writeBack, result.writeBackLine);
    return result;
}

} // namespace ct::sim

#endif // CT_SIM_CACHE_H
