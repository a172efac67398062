/**
 * @file
 * Write-back queue (WBQ) model. On the T3D, stores bypass the cache
 * (write-around) and enter a small coalescing queue drained to DRAM in
 * the background; the processor only stalls when the queue is full.
 * This is the mechanism that makes strided *stores* much faster than
 * strided *loads* on that machine (paper §3.5.1, Figure 4).
 */

#ifndef CT_SIM_WRITE_BUFFER_H
#define CT_SIM_WRITE_BUFFER_H

#include "sim/dram.h"
#include "sim/ring.h"

namespace ct::sim {

/** Sizing of the write queue. */
struct WriteBufferConfig
{
    /** Number of outstanding entries; 0 disables the queue entirely
     *  (every store stalls for its DRAM write). */
    unsigned entries = 6;
    /** Merge stores to the same line into one DRAM burst. */
    bool coalesce = true;
    Bytes lineBytes = 32;
    /**
     * Entries drained per DRAM turn. Draining in batches keeps row
     * locality among the buffered stores instead of ping-ponging the
     * open row between the read stream and single drained words.
     */
    unsigned drainBatch = 4;
};

/** Counters for tests and reports. */
struct WriteBufferStats
{
    std::uint64_t stores = 0;
    std::uint64_t coalesced = 0;
    std::uint64_t fullStalls = 0;
    Cycles stallCycles = 0;
};

/**
 * Occupancy-based write queue. Entries carry a completion time
 * assigned on enqueue (drains are serialized on the DRAM write port);
 * store() returns the stall the issuing processor observes.
 *
 * The queue is a ring of `entries` slots allocated at construction.
 * A batch issue sends every unissued entry, and new entries join at
 * the back, so the unissued entries are always the youngest
 * `unissued` ones.
 */
class WriteBuffer
{
  public:
    WriteBuffer(const WriteBufferConfig &config, Dram &dram);

    /**
     * Issue a word store at time @p now.
     * @return processor-visible stall cycles (0 in the common case).
     */
    Cycles store(Addr addr, Bytes bytes, Cycles now);

    /** Cycles from @p now until the queue fully drains (fence);
     *  forces any buffered entries out to memory. */
    Cycles drainTime(Cycles now);

    /** Pending (not yet drained) entries at time @p now. */
    std::size_t occupancy(Cycles now) const;

    const WriteBufferStats &stats() const { return counters; }

  private:
    struct Entry
    {
        Addr line = 0;
        Addr addr = 0;
        Bytes bytes = 0;
        Cycles completesAt = 0; ///< valid once issued
    };

    /** Entries sent to DRAM (the oldest ones). */
    std::size_t issued() const { return queue.size() - unissued; }

    /** Drop issued entries whose DRAM write finished by @p now. */
    void
    retire(Cycles now)
    {
        while (issued() > 0 && queue.front().completesAt <= now)
            queue.pop_front();
    }

    /** Send all unissued entries to DRAM back to back. */
    void
    issueBatch(Cycles now)
    {
        for (std::size_t i = issued(); i < queue.size(); ++i) {
            Entry &entry = queue[i];
            entry.completesAt =
                dram.accessBackground(entry.addr, entry.bytes, true, now)
                    .complete;
        }
        unissued = 0;
    }

    WriteBufferConfig cfg;
    Dram &dram;
    WriteBufferStats counters;
    Ring<Entry> queue;
    std::size_t unissued = 0;
};

inline Cycles
WriteBuffer::store(Addr addr, Bytes bytes, Cycles now)
{
    ++counters.stores;
    retire(now);

    Addr line = alignDown(addr, cfg.lineBytes);

    if (cfg.entries == 0) {
        // No queue: the store stalls for the full DRAM write.
        Cycles complete =
            dram.accessBackground(addr, bytes, true, now).complete;
        Cycles cost = complete - now;
        counters.stallCycles += cost;
        return cost;
    }

    // Coalesce into the youngest entry when it targets the same line
    // and it has not been sent to memory yet: the merged word rides
    // along in the same burst.
    if (cfg.coalesce && unissued > 0 && queue.back().line == line) {
        ++counters.coalesced;
        queue.back().bytes += bytes;
        return 0;
    }

    Cycles stall = 0;
    if (queue.full()) {
        ++counters.fullStalls;
        issueBatch(now);
        stall = queue.front().completesAt > now
                    ? queue.front().completesAt - now
                    : 0;
        counters.stallCycles += stall;
        now += stall;
        queue.pop_front();
        retire(now);
    }

    queue.push_back({line, addr, bytes, 0});
    if (++unissued >= std::max(1u, cfg.drainBatch))
        issueBatch(now);
    return stall;
}

} // namespace ct::sim

#endif // CT_SIM_WRITE_BUFFER_H
