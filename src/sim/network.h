/**
 * @file
 * Link-level network model. Packets traverse their dimension-order
 * route link by link; every directed link is a FIFO resource with a
 * fixed wire bandwidth, so congestion emerges from link sharing
 * instead of being an input parameter. Chunk-granularity store-and-
 * forward slightly overstates latency compared with wormhole routing
 * but leaves sustained bandwidth -- the quantity the paper's model is
 * built on -- unchanged.
 *
 * Topology outages are enforced here: a packet to or from a downed
 * node is swallowed (a dead node neither injects nor drains), routes
 * detour around dead links via Topology::healthyRoute, and when no
 * live path remains the packet is counted unroutable and dropped --
 * the reliable transport's watchdog turns that into a route-suspect
 * verdict instead of retrying forever.
 */

#ifndef CT_SIM_NETWORK_H
#define CT_SIM_NETWORK_H

#include <functional>
#include <memory>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/event.h"
#include "sim/fault.h"
#include "sim/topology.h"

namespace ct::sim {

/** Wire parameters of the network. */
struct NetworkConfig
{
    /** Wire bytes a link moves per node clock cycle. */
    double wireBytesPerCycle = 1.0;
    /** Fixed framing bytes per packet (header, delimiters). */
    Bytes headerBytes = 16;
    /** Wire bytes per payload word under address-data-pair framing
     *  (8 data bytes + address + per-word framing). */
    Bytes adpBytesPerWord = 16;
    /** Router traversal latency per hop. */
    Cycles hopLatencyCycles = 2;
};

/**
 * Counters. A snapshot view over the network's "sim.net.*" registry
 * metrics, materialized on stats() calls.
 */
struct NetworkStats
{
    std::uint64_t packets = 0;
    std::uint64_t payloadBytes = 0;
    std::uint64_t wireBytes = 0;
    // Injected wire faults (non-zero only when faults are active).
    std::uint64_t droppedPackets = 0;
    std::uint64_t corruptedPackets = 0;
    std::uint64_t duplicatedPackets = 0;
    std::uint64_t delayedPackets = 0;
    // Topology outages (non-zero only when outages are active).
    std::uint64_t reroutedPackets = 0;   ///< detoured around dead links
    std::uint64_t reroutedLinks = 0;     ///< distinct dead links detoured
    std::uint64_t unroutablePackets = 0; ///< no live path existed
    std::uint64_t deadNodePackets = 0;   ///< src or dst node was down
    std::uint64_t linkFailures = 0;      ///< link_fail_rate firings
};

/**
 * The machine's interconnect. send() reserves bandwidth on every link
 * of the packet's route (reservations are made in event-time order,
 * so FIFO link occupancy is consistent) and schedules a single
 * delivery callback at the arrival time.
 *
 * A reliable transport can interpose on both directions: the send tap
 * sees every outbound layer packet before it hits the wire (to assign
 * sequence numbers and keep retransmission copies), the deliver tap
 * sees every arrival before the layer sink (to verify, reorder, and
 * acknowledge). sendRaw() and deliverDirect() bypass the taps so the
 * transport's own control traffic and in-order releases do not
 * re-enter it.
 */
class Network
{
  public:
    using Deliver = std::function<void(Packet &&packet, Cycles time)>;
    /** Outbound interposer; return false to swallow the packet. */
    using SendTap = std::function<bool(Packet &packet)>;
    /** Inbound interposer; return false to consume the packet. */
    using DeliverTap =
        std::function<bool(Packet &&packet, Cycles time)>;

    /**
     * @p registry hosts the network's "sim.net.*" metrics (the
     * machine passes its own); nullptr gives the network a private
     * registry so standalone use keeps working.
     */
    Network(const NetworkConfig &config, Topology &topology,
            EventQueue &queue,
            obs::MetricsRegistry *registry = nullptr);

    /** Install the delivery sink (dispatches on packet.dst). */
    void setDeliver(Deliver deliver);

    /** Install or clear (pass nullptr) the transport interposers. */
    void setSendTap(SendTap tap);
    void setDeliverTap(DeliverTap tap);

    /** Attach the machine's fault injector (nullptr = fault-free). */
    void setFaults(FaultInjector *injector);

    /** Attach a tracer for wire events (nullptr = tracing off). */
    void setTracer(obs::Tracer *t) { tracer = t; }

    /** Wire bytes a packet occupies on each link it crosses. */
    Bytes wireBytesOf(const Packet &packet) const;

    /** Inject @p packet at the current event time. */
    void send(Packet &&packet);

    /** Transmit bypassing the send tap (transport control traffic). */
    void sendRaw(Packet &&packet);

    /** Hand a packet to the sink bypassing the deliver tap. */
    void deliverDirect(Packet &&packet, Cycles time);

    /** Counter snapshot, refreshed from the registry on each call. */
    const NetworkStats &stats() const;

    const NetworkConfig &config() const { return cfg; }

  private:
    void transmit(Packet &&packet);
    /** Route @p packet into routeScratch, with outage handling;
     *  nullptr = packet swallowed. */
    const std::vector<LinkId> *routeFor(const Packet &packet);
    /** Reserve link slots along @p route; returns the arrival time. */
    Cycles reserveRoute(const std::vector<LinkId> &route,
                        const Packet &packet);
    void reserveAndSchedule(const std::vector<LinkId> &route,
                            Packet &&packet, Cycles extra_delay);
    void arrive(Packet &&packet, Cycles time);
    void noteAvoidedLinks(const std::vector<LinkId> &avoided);

    /** Registry handles behind the NetworkStats view. */
    struct Metrics
    {
        obs::Counter packets;
        obs::Counter payloadBytes;
        obs::Counter wireBytes;
        obs::Counter droppedPackets;
        obs::Counter corruptedPackets;
        obs::Counter duplicatedPackets;
        obs::Counter delayedPackets;
        obs::Counter reroutedPackets;
        obs::Counter reroutedLinks;
        obs::Counter unroutablePackets;
        obs::Counter deadNodePackets;
        obs::Counter linkFailures;
    };

    NetworkConfig cfg;
    Topology &topo;
    EventQueue &events;
    Deliver deliverFn;
    SendTap sendTap;
    DeliverTap deliverTap;
    FaultInjector *faults = nullptr;
    obs::Tracer *tracer = nullptr;
    std::unique_ptr<obs::MetricsRegistry> ownedRegistry;
    Metrics m;
    mutable NetworkStats view;
    /** Time each directed link becomes free. */
    std::vector<Cycles> linkFreeAt;
    /** Dead links already counted in stats().reroutedLinks. */
    std::vector<bool> reroutedLinkSeen;
    /** The route of the packet being transmitted. Kept across
     *  packets, so routing reuses its buffers instead of allocating
     *  per packet; transmit() runs serially (sends inside a parallel
     *  window defer to commit), so one is enough. */
    RouteInfo routeScratch;
};

} // namespace ct::sim

#endif // CT_SIM_NETWORK_H
