#include "report.h"

#include <iomanip>
#include <sstream>

namespace ct::sim {

double
MachineReport::loadHitRate() const
{
    std::uint64_t total = loadHits + loadMisses;
    return total == 0 ? 0.0
                      : static_cast<double>(loadHits) /
                            static_cast<double>(total);
}

double
MachineReport::rowHitRate() const
{
    std::uint64_t total = rowHits + rowMisses;
    return total == 0 ? 0.0
                      : static_cast<double>(rowHits) /
                            static_cast<double>(total);
}

double
MachineReport::wireOverhead() const
{
    return payloadBytes == 0 ? 0.0
                             : static_cast<double>(wireBytes) /
                                   static_cast<double>(payloadBytes);
}

MachineReport
collectReport(Machine &machine)
{
    MachineReport r;
    r.nodes = machine.nodeCount();
    for (int n = 0; n < machine.nodeCount(); ++n) {
        Node &node = machine.node(n);
        const auto &cache = node.memory().cache().stats();
        r.loadHits += cache.loadHits;
        r.loadMisses += cache.loadMisses;
        r.cacheInvalidations += cache.invalidations;

        const auto &dram = node.memory().dram().stats();
        r.dramReads += dram.reads;
        r.dramWrites += dram.writes;
        r.rowHits += dram.rowHits;
        r.rowMisses += dram.rowMisses;

        const auto &wbq = node.memory().writeBuffer().stats();
        r.wbqStores += wbq.stores;
        r.wbqCoalesced += wbq.coalesced;
        r.wbqStallCycles += wbq.stallCycles;

        const auto &bus = node.memory().bus().stats();
        r.busTransactions += bus.transactions;
        r.busOwnerSwitches += bus.ownerSwitches;
        r.busWaitCycles += bus.waitCycles;

        const auto &deposit = node.depositEngine().stats();
        r.depositPackets += deposit.packets;
        r.depositWords += deposit.words;
        r.depositBusyCycles += deposit.busyCycles;
        r.engineRefusals += deposit.refusedPackets;
    }
    const auto &net = machine.network().stats();
    r.networkPackets = net.packets;
    r.payloadBytes = net.payloadBytes;
    r.wireBytes = net.wireBytes;
    r.faultDrops = net.droppedPackets;
    r.faultCorruptions = net.corruptedPackets;
    r.faultDuplicates = net.duplicatedPackets;
    r.faultDelays = net.delayedPackets;
    if (const auto *faults = machine.faults()) {
        r.engineStalls = faults->stats().engineStalls;
        r.engineFailures = faults->stats().engineFailures;
    }
    r.peakPendingEvents = machine.events().peakPending();
    r.truncatedRun = machine.events().truncated();
    r.reroutedPackets = net.reroutedPackets;
    r.reroutedLinks = net.reroutedLinks;
    r.unroutablePackets = net.unroutablePackets;
    r.deadNodePackets = net.deadNodePackets;
    r.linkFailures = net.linkFailures;
    const Topology &topo = machine.topology();
    if (topo.anyOutages()) {
        r.downedLinks = topo.downedLinks();
        r.downedNodes = topo.downedNodes();
    }

    // Publish the node aggregates into the machine registry so a
    // --metrics-out dump carries the whole picture (the network and
    // fault counters already live there as "sim.*" counters).
    obs::MetricsRegistry &reg = machine.metrics();
    auto set = [&reg](const char *name, std::uint64_t v) {
        reg.gauge(name).set(static_cast<std::int64_t>(v));
    };
    set("machine.nodes", static_cast<std::uint64_t>(r.nodes));
    set("machine.cache.load_hits", r.loadHits);
    set("machine.cache.load_misses", r.loadMisses);
    set("machine.cache.invalidations", r.cacheInvalidations);
    set("machine.dram.reads", r.dramReads);
    set("machine.dram.writes", r.dramWrites);
    set("machine.dram.row_hits", r.rowHits);
    set("machine.dram.row_misses", r.rowMisses);
    set("machine.wbq.stores", r.wbqStores);
    set("machine.wbq.coalesced", r.wbqCoalesced);
    set("machine.wbq.stall_cycles", r.wbqStallCycles);
    set("machine.bus.transactions", r.busTransactions);
    set("machine.bus.owner_switches", r.busOwnerSwitches);
    set("machine.bus.wait_cycles", r.busWaitCycles);
    set("machine.deposit.packets", r.depositPackets);
    set("machine.deposit.words", r.depositWords);
    set("machine.deposit.busy_cycles", r.depositBusyCycles);
    set("machine.deposit.refusals", r.engineRefusals);
    set("machine.topology.downed_links",
        static_cast<std::uint64_t>(r.downedLinks));
    set("machine.topology.downed_nodes",
        static_cast<std::uint64_t>(r.downedNodes));
    set("machine.events.peak_pending", r.peakPendingEvents);
    set("machine.events.truncated_run",
        static_cast<std::uint64_t>(r.truncatedRun ? 1 : 0));
    return r;
}

std::string
formatReport(const MachineReport &r)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(1);
    os << "machine report (" << r.nodes << " nodes)\n";
    if (r.truncatedRun)
        os << "  *** TRUNCATED RUN: the event cap stopped the "
              "simulation with events still pending; every figure "
              "below is a lower bound ***\n";
    os << "  cache:   " << 100.0 * r.loadHitRate() << "% load hits ("
       << r.loadHits << "/" << r.loadHits + r.loadMisses << "), "
       << r.cacheInvalidations << " invalidations\n";
    os << "  dram:    " << r.dramReads << " reads, " << r.dramWrites
       << " writes, " << 100.0 * r.rowHitRate() << "% row hits\n";
    os << "  wbq:     " << r.wbqStores << " stores, "
       << r.wbqCoalesced << " coalesced, " << r.wbqStallCycles
       << " stall cycles\n";
    if (r.busTransactions > 0) {
        os << "  bus:     " << r.busTransactions << " transactions, "
           << r.busOwnerSwitches << " owner switches, "
           << r.busWaitCycles << " wait cycles\n";
    }
    os << "  deposit: " << r.depositPackets << " packets, "
       << r.depositWords << " words, " << r.depositBusyCycles
       << " busy cycles\n";
    os << "  network: " << r.networkPackets << " packets, "
       << r.payloadBytes << " payload bytes, wire overhead "
       << r.wireOverhead() << "x\n";
    if (r.faultDrops + r.faultCorruptions + r.faultDuplicates +
            r.faultDelays + r.engineStalls + r.engineFailures +
            r.engineRefusals >
        0) {
        os << "  faults:  " << r.faultDrops << " drops, "
           << r.faultCorruptions << " corruptions, "
           << r.faultDuplicates << " dups, " << r.faultDelays
           << " delays, " << r.engineStalls << " engine stalls, "
           << r.engineFailures << " engine failures, "
           << r.engineRefusals << " refusals\n";
    }
    if (r.downedLinks + r.downedNodes > 0 ||
        r.reroutedPackets + r.unroutablePackets + r.deadNodePackets +
                r.linkFailures >
            0) {
        os << "  outages: " << r.downedLinks << " links down, "
           << r.downedNodes << " nodes down, " << r.reroutedPackets
           << " rerouted packets (" << r.reroutedLinks
           << " links detoured), " << r.unroutablePackets
           << " unroutable, " << r.deadNodePackets
           << " to/from dead nodes, " << r.linkFailures
           << " wire link failures\n";
    }
    return os.str();
}

} // namespace ct::sim
