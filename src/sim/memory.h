/**
 * @file
 * The complete local memory system of one node: first-level cache,
 * write queue, read-ahead / pipelined-load units, shared bus and
 * page-mode DRAM. Exposes processor-visible cycle costs for loads and
 * stores, plus a cache-bypassing engine port used by deposit engines
 * and DMAs.
 */

#ifndef CT_SIM_MEMORY_H
#define CT_SIM_MEMORY_H

#include <memory>

#include "sim/bus.h"
#include "sim/cache.h"
#include "sim/dram.h"
#include "sim/prefetch.h"
#include "sim/write_buffer.h"

namespace ct::sim {

/** Full configuration of a node's memory system. */
struct MemoryConfig
{
    CacheConfig cache;
    DramConfig dram;
    WriteBufferConfig writeBuffer;
    ReadAheadConfig readAhead;
    LoadPipelineConfig loadPipeline;
    BusConfig bus;

    /** Cycles for a load that hits in the cache. */
    Cycles cacheHitCycles = 1;
    /** Fixed overhead added to a demand miss (handshake, tags). */
    Cycles missOverheadCycles = 2;
    /** Cycles to issue a store into the write path. */
    Cycles storeIssueCycles = 1;
};

/**
 * One node's memory system. All methods take the caller's current
 * time so that the background units (write queue, prefetcher) can be
 * modeled by occupancy without a global event loop. The word path --
 * load() and store() and the unit calls they make -- is defined
 * inline, so a processor kernel compiles into one loop body.
 */
class MemorySystem
{
  public:
    explicit MemorySystem(const MemoryConfig &config);

    MemorySystem(const MemorySystem &) = delete;
    MemorySystem &operator=(const MemorySystem &) = delete;

    /**
     * Processor word load; returns visible cycles.
     * @param streaming data-array loads may use the pipelined-load
     *        path (i860 pfld); auxiliary loads such as index-array
     *        reads set this false and go through the cache.
     */
    Cycles load(Addr addr, Cycles now,
                BusMaster master = BusMaster::Processor,
                bool streaming = true);

    /** Processor word store; returns visible cycles. */
    Cycles store(Addr addr, Cycles now,
                 BusMaster master = BusMaster::Processor);

    /**
     * Read through the engine port (cache bypassed, pattern-neutral).
     * Used by DMA fetch engines. Returns service cycles.
     */
    Cycles engineRead(Addr addr, Bytes bytes, Cycles now,
                      BusMaster master = BusMaster::Dma);

    /**
     * Write through the engine port. Deposit engines invalidate the
     * corresponding cache line to stay coherent (T3D behaviour).
     */
    Cycles engineWrite(Addr addr, Bytes bytes, Cycles now,
                       BusMaster master = BusMaster::Dma);

    /** Drain write queue and load pipeline; returns wait cycles. */
    Cycles fence(Cycles now);

    /** Reset stream/pipeline state at a synchronization point. */
    void synchronize();

    const MemoryConfig &config() const { return cfg; }
    const Cache &cache() const { return cacheModel; }
    const Dram &dram() const { return dramModel; }
    const WriteBuffer &writeBuffer() const { return wbq; }
    const ReadAhead &readAhead() const { return rdal; }
    const Bus &bus() const { return busModel; }

  private:
    MemoryConfig cfg;
    Dram dramModel;
    Cache cacheModel;
    WriteBuffer wbq;
    ReadAhead rdal;
    LoadPipeline pipeline;
    Bus busModel;
};

inline Cycles
MemorySystem::load(Addr addr, Cycles now, BusMaster master,
                   bool streaming)
{
    // Pipelined loads bypass the cache entirely (i860 pfld).
    if (cfg.loadPipeline.enabled && streaming) {
        Cycles bus_extra =
            busModel.transact(master, util::wordBytes, now);
        Cycles completes =
            dramModel
                .access(addr, util::wordBytes, false, now + bus_extra)
                .complete;
        return bus_extra + pipeline.load(completes, now + bus_extra);
    }

    auto result = cacheModel.load(addr);
    if (result.hit)
        return cfg.cacheHitCycles;

    Addr line = alignDown(addr, cfg.cache.lineBytes);
    Cycles fill = rdal.fill(line, now);
    Cycles bus_extra =
        busModel.transact(master, cfg.cache.lineBytes, now + fill);
    Cycles total = cfg.missOverheadCycles + fill + bus_extra;
    if (result.writeBack) {
        Cycles wb = dramModel
                        .access(result.writeBackLine,
                                cfg.cache.lineBytes, true, now + total)
                        .complete -
                    (now + total);
        total += wb;
    }
    return total;
}

inline Cycles
MemorySystem::store(Addr addr, Cycles now, BusMaster master)
{
    auto result = cacheModel.store(addr);
    Cycles total = cfg.storeIssueCycles;
    if (result.toMemory) {
        total += wbq.store(addr, util::wordBytes, now);
        total += busModel.transact(master, util::wordBytes, now);
    }
    if (result.fill) {
        // Write-allocate: fetch the line before dirtying it.
        Cycles fill =
            dramModel
                .access(alignDown(addr, cfg.cache.lineBytes),
                        cfg.cache.lineBytes, false, now + total)
                .complete -
            (now + total);
        total += fill;
    }
    if (result.writeBack) {
        Cycles wb = dramModel
                        .access(result.writeBackLine,
                                cfg.cache.lineBytes, true, now + total)
                        .complete -
                    (now + total);
        total += wb;
    }
    return total;
}

} // namespace ct::sim

#endif // CT_SIM_MEMORY_H
