/**
 * @file
 * Machine statistics report: aggregates the hardware counters of a
 * simulated run (cache hit rates, DRAM row locality, write-queue
 * behaviour, bus contention, network utilization) into a structured
 * summary. Benchmarks and examples print it to show *why* a
 * communication style performed as it did.
 */

#ifndef CT_SIM_REPORT_H
#define CT_SIM_REPORT_H

#include <string>

#include "sim/machine.h"

namespace ct::sim {

/** Aggregated counters of one machine run. */
struct MachineReport
{
    int nodes = 0;

    // Cache.
    std::uint64_t loadHits = 0;
    std::uint64_t loadMisses = 0;
    std::uint64_t cacheInvalidations = 0;

    // DRAM.
    std::uint64_t dramReads = 0;
    std::uint64_t dramWrites = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;

    // Write queue.
    std::uint64_t wbqStores = 0;
    std::uint64_t wbqCoalesced = 0;
    Cycles wbqStallCycles = 0;

    // Bus.
    std::uint64_t busTransactions = 0;
    std::uint64_t busOwnerSwitches = 0;
    Cycles busWaitCycles = 0;

    // Deposit engines.
    std::uint64_t depositPackets = 0;
    std::uint64_t depositWords = 0;
    Cycles depositBusyCycles = 0;

    // Network.
    std::uint64_t networkPackets = 0;
    std::uint64_t payloadBytes = 0;
    std::uint64_t wireBytes = 0;

    // Injected faults (all zero on a fault-free machine).
    std::uint64_t faultDrops = 0;
    std::uint64_t faultCorruptions = 0;
    std::uint64_t faultDuplicates = 0;
    std::uint64_t faultDelays = 0;
    std::uint64_t engineStalls = 0;
    std::uint64_t engineFailures = 0;
    std::uint64_t engineRefusals = 0;

    // Event core.
    /** Peak simultaneously pending events over the run. */
    std::uint64_t peakPendingEvents = 0;
    /**
     * True when any EventQueue::run stopped at its max_events guard
     * with events still pending: the run never converged and every
     * other counter in this report is a lower bound, not a result.
     */
    bool truncatedRun = false;

    // Topology outages (all zero on a healthy fabric).
    std::uint64_t reroutedPackets = 0;
    std::uint64_t reroutedLinks = 0;
    std::uint64_t unroutablePackets = 0;
    std::uint64_t deadNodePackets = 0;
    std::uint64_t linkFailures = 0;
    int downedLinks = 0;
    int downedNodes = 0;

    /** Load hit fraction; 0 when no loads happened. */
    double loadHitRate() const;

    /** DRAM open-row hit fraction. */
    double rowHitRate() const;

    /** Wire bytes per payload byte (framing overhead factor). */
    double wireOverhead() const;
};

/** Collect the counters of every node and the network. */
MachineReport collectReport(Machine &machine);

/** Multi-line human-readable rendering. */
std::string formatReport(const MachineReport &report);

} // namespace ct::sim

#endif // CT_SIM_REPORT_H
