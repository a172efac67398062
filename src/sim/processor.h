/**
 * @file
 * Processor kernel model. The processor executes the optimized
 * (unrolled, scheduled) load/store loops that realize the basic
 * transfers xCy, xS0 and 0Ry; each kernel both moves real data in
 * node memory and accounts processor-visible cycles against the
 * node's MemorySystem.
 */

#ifndef CT_SIM_PROCESSOR_H
#define CT_SIM_PROCESSOR_H

#include <vector>

#include "sim/memory.h"
#include "sim/walk.h"

namespace ct::sim {

/** Per-element instruction costs of the copy loops. */
struct ProcessorConfig
{
    /** Loop/address-generation overhead per element (unrolled). */
    Cycles loopCyclesPerElem = 1;
    /** Store one word to the memory-mapped NI send port. */
    Cycles portStoreCycles = 3;
    /** Load one word from the NI receive FIFO. */
    Cycles portLoadCycles = 3;
};

/**
 * One processor (or communication co-processor). Kernels are chunked:
 * callers pass the element range so the communication timeline can
 * pipeline chunks through the machine.
 */
class Processor
{
  public:
    Processor(const ProcessorConfig &config, MemorySystem &memory,
              NodeRam &ram,
              BusMaster bus_master = BusMaster::Processor);

    Processor(const Processor &) = delete;
    Processor &operator=(const Processor &) = delete;

    /**
     * Local memory-to-memory copy (xCy): dst[i] = src[i] for
     * i in [first, first+count). Returns elapsed cycles.
     */
    Cycles copy(const PatternWalk &src, const PatternWalk &dst,
                std::uint64_t first, std::uint64_t count, Cycles start);

    /**
     * Copy with independent element offsets:
     * dst[dst_first + i] = src[src_first + i] for i in [0, count).
     * Used when staging through packing buffers.
     */
    Cycles copy2(const PatternWalk &src, std::uint64_t src_first,
                 const PatternWalk &dst, std::uint64_t dst_first,
                 std::uint64_t count, Cycles start);

    /**
     * Load-send kernel (xS0): read elements with pattern x and store
     * them to the NI port; the words are appended to @p words, which
     * grows once per call (reserve it to make the call allocate
     * nothing).
     */
    Cycles gatherToPort(const PatternWalk &src, std::uint64_t first,
                        std::uint64_t count, Cycles start,
                        std::vector<std::uint64_t> &words);

    /**
     * Compute the destination addresses for a chained remote store
     * (the sender generates addresses for the receiver, §2.1). Index
     * loads for an indexed destination pattern cost sender time.
     * The addresses are appended to @p addrs, which grows once per
     * call.
     */
    Cycles computeRemoteAddrs(const PatternWalk &dst,
                              std::uint64_t first, std::uint64_t count,
                              Cycles start, std::vector<Addr> &addrs);

    /**
     * Receive-store kernel (0Ry): drain @p count words from the NI
     * FIFO and store them with pattern y.
     */
    Cycles scatterFromPort(const PatternWalk &dst, std::uint64_t first,
                           std::uint64_t count, Cycles start,
                           const std::uint64_t *words);

    /** Wait for write queue / load pipeline to drain. */
    Cycles fence(Cycles now) { return mem.fence(now); }

    MemorySystem &memory() { return mem; }
    NodeRam &ram() { return nodeRam; }
    const ProcessorConfig &config() const { return cfg; }

  private:
    // One loop per kernel, instantiated for each typed cursor (or
    // pair of cursors); the public kernels pick the instance once per
    // call.
    template <typename Src, typename Dst>
    Cycles copyLoop(Src src, Dst dst, std::uint64_t count, Cycles start);
    template <typename Src>
    Cycles gatherLoop(Src src, std::uint64_t count, Cycles start,
                      std::uint64_t *words);
    template <typename Dst>
    Cycles addrLoop(Dst dst, std::uint64_t count, Cycles start,
                    Addr *addrs);
    template <typename Dst>
    Cycles scatterLoop(Dst dst, std::uint64_t count, Cycles start,
                       const std::uint64_t *words);

    ProcessorConfig cfg;
    MemorySystem &mem;
    NodeRam &nodeRam;
    BusMaster master;
};

} // namespace ct::sim

#endif // CT_SIM_PROCESSOR_H
