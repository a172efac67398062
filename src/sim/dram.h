/**
 * @file
 * Page-mode DRAM model. Both machines of the paper use simple
 * DRAM-based main memories whose throughput depends heavily on row
 * (page) locality: accesses within an open row are fast, a row change
 * pays the full RAS cycle.
 *
 * Structure: each bank owns an open-row register and an activation
 * window; the data beats of all banks serialize on one shared data
 * bus. Two request lanes exist:
 *
 *  - the demand lane (processor fills, prefetches, engine traffic),
 *  - the background lane (write-queue drains), which shares row and
 *    bank state but never delays demand requests head-of-line; real
 *    memory controllers give buffered writes the lowest priority.
 */

#ifndef CT_SIM_DRAM_H
#define CT_SIM_DRAM_H

#include <algorithm>
#include <vector>

#include "sim/addr.h"

namespace ct::sim {

/** Timing and geometry parameters of the DRAM array. */
struct DramConfig
{
    Bytes rowBytes = 2048;    ///< page size of one DRAM row
    int banks = 4;            ///< independently open rows
    /** Bank interleave granularity; rows of one span share a bank. */
    Bytes bankSpanBytes = 2048;
    Cycles rowHitCycles = 10; ///< read within the open row
    Cycles rowMissCycles = 20; ///< read after a row change
    /** Writes often use a cheaper CAS-only path than line reads. */
    Cycles writeHitCycles = 10;
    Cycles writeMissCycles = 20;
    Bytes beatBytes = 8;      ///< bytes moved per data beat
    Cycles burstBeatCycles = 1; ///< each beat after the first
};

/** Counters exposed for tests and reports. */
struct DramStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;
    Cycles busyCycles = 0;
};

/** Result of one DRAM request. */
struct DramAccess
{
    Cycles start = 0;    ///< when the request began being served
    Cycles complete = 0; ///< when the data transfer finished
    bool rowHit = false; ///< first row touched was already open
};

/**
 * Banked page-mode DRAM. Activations overlap across banks; data
 * beats serialize on the shared bus, so independent streams (or
 * pipelined random loads) overlap their row misses while same-bank
 * streams serialize fully.
 *
 * access() runs once per simulated memory word, so it is defined
 * inline below and maps addresses with shifts and masks derived from
 * the power-of-two geometry at construction; only a bank count that
 * is not a power of two takes a remainder.
 */
class Dram
{
  public:
    explicit Dram(const DramConfig &config);

    /**
     * Serve a demand read or write of @p bytes at @p addr, no earlier
     * than @p now. Requests crossing row boundaries pay each row.
     */
    DramAccess
    access(Addr addr, Bytes bytes, bool is_write, Cycles now)
    {
        return serve(addr, bytes, is_write, now, demandBusyUntil);
    }

    /**
     * Serve a background (write-drain) request. Shares row/bank
     * state and its own serialization, but does not push the demand
     * lane's availability.
     */
    DramAccess
    accessBackground(Addr addr, Bytes bytes, bool is_write, Cycles now)
    {
        return serve(addr, bytes, is_write, now, backgroundBusyUntil);
    }

    /** Forget all open rows (refresh / synchronization). */
    void closeRows();

    const DramStats &stats() const { return counters; }
    const DramConfig &config() const { return cfg; }

  private:
    /** Open-row register and activation window of one bank. */
    struct Bank
    {
        Addr openRow = 0;
        Cycles busyUntil = 0;
        bool rowOpen = false;
    };

    Bank &
    bankOf(Addr addr)
    {
        Addr span = addr >> spanShift;
        return banks[banksPowerOfTwo ? span & bankMask
                                     : span % banks.size()];
    }

    Addr rowOf(Addr addr) const { return addr & rowMask; }

    DramAccess serve(Addr addr, Bytes bytes, bool is_write, Cycles now,
                     Cycles &lane_busy);

    [[noreturn]] static void zeroByteRequest();

    DramConfig cfg;
    DramStats counters;
    std::vector<Bank> banks;
    unsigned spanShift = 0; ///< log2(bankSpanBytes)
    unsigned beatShift = 0; ///< log2(beatBytes)
    Addr rowMask = 0;       ///< clears the offset within a row
    Addr bankMask = 0;      ///< banks - 1, if banksPowerOfTwo
    bool banksPowerOfTwo = true;
    Cycles demandBusyUntil = 0;
    Cycles backgroundBusyUntil = 0;
};

inline DramAccess
Dram::serve(Addr addr, Bytes bytes, bool is_write, Cycles now,
            Cycles &lane_busy)
{
    if (bytes == 0)
        zeroByteRequest();
    if (is_write)
        ++counters.writes;
    else
        ++counters.reads;

    Bank &first = bankOf(addr);
    DramAccess result;
    result.rowHit = first.rowOpen && first.openRow == rowOf(addr);

    // Row activation occupies the bank; the data beats serialize on
    // the lane's shared data path. Activations in different banks
    // overlap, which lets pipelined streams hide row misses.
    Cycles start = std::max(now, first.busyUntil);

    Cycles activation = 0;
    Cycles data = 0;
    Addr cursor = addr;
    Bytes remaining = bytes;
    while (remaining > 0) {
        Addr row = rowOf(cursor);
        Bytes chunk = std::min<Bytes>(remaining, row + cfg.rowBytes - cursor);
        Bank &bank = bankOf(cursor);
        if (bank.rowOpen && bank.openRow == row) {
            ++counters.rowHits;
            activation += is_write ? cfg.writeHitCycles : cfg.rowHitCycles;
        } else {
            ++counters.rowMisses;
            activation +=
                is_write ? cfg.writeMissCycles : cfg.rowMissCycles;
            bank.openRow = row;
            bank.rowOpen = true;
        }
        Bytes beats = (chunk + cfg.beatBytes - 1) >> beatShift;
        data += beats * cfg.burstBeatCycles;
        cursor += chunk;
        remaining -= chunk;
    }

    Cycles complete = std::max(start + activation, lane_busy) + data;
    first.busyUntil = complete;
    lane_busy = complete;

    result.start = start;
    result.complete = complete;
    counters.busyCycles += activation + data;
    return result;
}

} // namespace ct::sim

#endif // CT_SIM_DRAM_H
