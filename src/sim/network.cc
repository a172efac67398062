#include "network.h"

#include <cmath>

#include "sim/trace_tracks.h"
#include "util/logging.h"

namespace ct::sim {

Network::Network(const NetworkConfig &config, Topology &topology,
                 EventQueue &queue, obs::MetricsRegistry *registry)
    : cfg(config), topo(topology), events(queue),
      linkFreeAt(static_cast<std::size_t>(topology.linkCount()), 0),
      reroutedLinkSeen(static_cast<std::size_t>(topology.linkCount()),
                       false)
{
    if (!registry) {
        ownedRegistry = std::make_unique<obs::MetricsRegistry>();
        registry = ownedRegistry.get();
    }
    m.packets = registry->counter("sim.net.packets");
    m.payloadBytes = registry->counter("sim.net.payload_bytes");
    m.wireBytes = registry->counter("sim.net.wire_bytes");
    m.droppedPackets = registry->counter("sim.net.dropped_packets");
    m.corruptedPackets =
        registry->counter("sim.net.corrupted_packets");
    m.duplicatedPackets =
        registry->counter("sim.net.duplicated_packets");
    m.delayedPackets = registry->counter("sim.net.delayed_packets");
    m.reroutedPackets = registry->counter("sim.net.rerouted_packets");
    m.reroutedLinks = registry->counter("sim.net.rerouted_links");
    m.unroutablePackets =
        registry->counter("sim.net.unroutable_packets");
    m.deadNodePackets = registry->counter("sim.net.dead_node_packets");
    m.linkFailures = registry->counter("sim.net.link_failures");
    if (cfg.wireBytesPerCycle <= 0.0 ||
        !std::isfinite(cfg.wireBytesPerCycle))
        util::fatal("Network: wireBytesPerCycle must be a positive "
                    "finite number, got ",
                    cfg.wireBytesPerCycle);
    if (cfg.adpBytesPerWord < 8)
        util::fatal("Network: adpBytesPerWord must cover the 8 data "
                    "bytes of a word, got ",
                    cfg.adpBytesPerWord);
}

void
Network::setDeliver(Deliver deliver)
{
    deliverFn = std::move(deliver);
}

void
Network::setSendTap(SendTap tap)
{
    sendTap = std::move(tap);
}

void
Network::setDeliverTap(DeliverTap tap)
{
    deliverTap = std::move(tap);
}

void
Network::setFaults(FaultInjector *injector)
{
    faults = injector;
}

const NetworkStats &
Network::stats() const
{
    view.packets = m.packets.value();
    view.payloadBytes = m.payloadBytes.value();
    view.wireBytes = m.wireBytes.value();
    view.droppedPackets = m.droppedPackets.value();
    view.corruptedPackets = m.corruptedPackets.value();
    view.duplicatedPackets = m.duplicatedPackets.value();
    view.delayedPackets = m.delayedPackets.value();
    view.reroutedPackets = m.reroutedPackets.value();
    view.reroutedLinks = m.reroutedLinks.value();
    view.unroutablePackets = m.unroutablePackets.value();
    view.deadNodePackets = m.deadNodePackets.value();
    view.linkFailures = m.linkFailures.value();
    return view;
}

Bytes
Network::wireBytesOf(const Packet &packet) const
{
    Bytes payload_words = packet.words.size();
    Bytes body = packet.framing == Framing::AddrDataPair
                     ? payload_words * cfg.adpBytesPerWord
                     : payload_words * 8;
    return cfg.headerBytes + body;
}

void
Network::send(Packet &&packet)
{
    if (!deliverFn)
        util::fatal("Network::send: no delivery sink installed");
    if (packet.framing == Framing::AddrDataPair &&
        packet.addrs.size() != packet.words.size())
        util::fatal("Network::send: adp packet without addresses");

    // Inside a parallel window the link ledger (linkFreeAt) must not
    // be touched: reservations are made in event-time order and that
    // order only exists at commit. Buffer the whole send; it re-runs
    // here serially, at this event's exact (time, seq) slot.
    if (events.inWindow()) {
        events.deferToCommit([this, p = std::move(packet)]() mutable {
            send(std::move(p));
        });
        return;
    }

    if (sendTap && !sendTap(packet))
        return;
    transmit(std::move(packet));
}

void
Network::sendRaw(Packet &&packet)
{
    if (!deliverFn)
        util::fatal("Network::sendRaw: no delivery sink installed");
    if (events.inWindow()) {
        events.deferToCommit([this, p = std::move(packet)]() mutable {
            sendRaw(std::move(p));
        });
        return;
    }
    transmit(std::move(packet));
}

void
Network::deliverDirect(Packet &&packet, Cycles time)
{
    deliverFn(std::move(packet), time);
}

void
Network::noteAvoidedLinks(const std::vector<LinkId> &avoided)
{
    for (LinkId link : avoided) {
        auto idx = static_cast<std::size_t>(link);
        if (!reroutedLinkSeen[idx]) {
            reroutedLinkSeen[idx] = true;
            m.reroutedLinks.inc();
        }
    }
}

const std::vector<LinkId> *
Network::routeFor(const Packet &packet)
{
    if (!topo.anyOutages()) {
        topo.route(packet.src, packet.dst, routeScratch.links);
        return &routeScratch.links;
    }
    Cycles now = events.now();
    // A dead node neither injects nor drains: the packet vanishes and
    // the reliable transport's watchdog notices the silence.
    if (!topo.nodeAlive(packet.src, now) ||
        !topo.nodeAlive(packet.dst, now)) {
        m.deadNodePackets.inc();
        if (tracer)
            tracer->instant("net", "dead-node",
                            traceTrack(packet.src, TraceTrack::Net),
                            now, "dst", packet.dst);
        return nullptr;
    }
    RouteInfo &info = routeScratch;
    topo.healthyRoute(packet.src, packet.dst, now, info);
    if (!info.ok) {
        m.unroutablePackets.inc();
        noteAvoidedLinks(info.avoided);
        if (tracer)
            tracer->instant("net", "unroutable",
                            traceTrack(packet.src, TraceTrack::Net),
                            now, "dst", packet.dst);
        return nullptr;
    }
    if (info.rerouted) {
        m.reroutedPackets.inc();
        noteAvoidedLinks(info.avoided);
        if (tracer)
            tracer->instant("net", "reroute",
                            traceTrack(packet.src, TraceTrack::Net),
                            now, "dst", packet.dst);
    }
    return &info.links;
}

void
Network::transmit(Packet &&packet)
{
    m.packets.inc();
    m.payloadBytes.add(packet.payloadBytes());
    m.wireBytes.add(wireBytesOf(packet));

    // Local delivery bypasses the wires (and therefore wire faults),
    // but a dead node does not loop traffic back to itself either.
    if (packet.src == packet.dst) {
        if (topo.anyOutages() &&
            !topo.nodeAlive(packet.src, events.now())) {
            m.deadNodePackets.inc();
            return;
        }
        Packet p = std::move(packet);
        EventQueue::PartitionScope scope(events, p.dst);
        events.scheduleAfter(0, [this, p = std::move(p)]() mutable {
            arrive(std::move(p), events.now());
        });
        return;
    }

    const std::vector<LinkId> *routed = routeFor(packet);
    if (!routed)
        return;
    const std::vector<LinkId> &route = *routed;

    if (faults) {
        // A permanent probabilistic link failure takes down one
        // network link on this packet's route; the packet riding it
        // is lost (its bandwidth was spent) and every later packet
        // must detour.
        if (faults->rollLinkFailure() && route.size() > 2) {
            // Positions 0 and size-1 are the injection/ejection
            // ports; only inter-router links can fail this way.
            std::uint64_t pos =
                1 + faults->pickFailingLink(route.size() - 2);
            topo.downLink(route[pos], events.now());
            m.linkFailures.inc();
            if (tracer)
                tracer->instant(
                    "net", "link-fail",
                    traceTrack(packet.src, TraceTrack::Net),
                    events.now(), "link", route[pos]);
            reserveRoute(route, packet);
            return;
        }
        // A dropped packet still occupied the wires; charge it the
        // full route's bandwidth (the counters above already did) but
        // never schedule its delivery.
        if (faults->rollDrop()) {
            m.droppedPackets.inc();
            if (tracer)
                tracer->instant(
                    "net", "drop",
                    traceTrack(packet.src, TraceTrack::Net),
                    events.now(), "dst", packet.dst);
            reserveRoute(route, packet);
            return;
        }
        if (faults->rollCorrupt()) {
            m.corruptedPackets.inc();
            faults->corruptPayload(packet);
            if (tracer)
                tracer->instant(
                    "net", "corrupt",
                    traceTrack(packet.src, TraceTrack::Net),
                    events.now(), "dst", packet.dst);
        }
        if (faults->rollDuplicate()) {
            m.duplicatedPackets.inc();
            Packet copy = packet;
            m.packets.inc();
            m.payloadBytes.add(copy.payloadBytes());
            m.wireBytes.add(wireBytesOf(copy));
            if (tracer)
                tracer->instant(
                    "net", "duplicate",
                    traceTrack(packet.src, TraceTrack::Net),
                    events.now(), "dst", packet.dst);
            reserveAndSchedule(route, std::move(copy), 0);
        }
        Cycles extra = faults->rollDelay();
        if (extra > 0) {
            m.delayedPackets.inc();
            if (tracer)
                tracer->instant(
                    "net", "delay",
                    traceTrack(packet.src, TraceTrack::Net),
                    events.now(), "cycles", extra);
        }
        reserveAndSchedule(route, std::move(packet), extra);
        return;
    }

    reserveAndSchedule(route, std::move(packet), 0);
}

Cycles
Network::reserveRoute(const std::vector<LinkId> &route,
                      const Packet &packet)
{
    Cycles serialize = static_cast<Cycles>(std::llround(
        std::ceil(static_cast<double>(wireBytesOf(packet)) /
                  cfg.wireBytesPerCycle)));

    Cycles cursor = events.now();
    for (LinkId link : route) {
        auto idx = static_cast<std::size_t>(link);
        Cycles start = std::max(cursor, linkFreeAt[idx]);
        Cycles done = start + serialize;
        linkFreeAt[idx] = done;
        cursor = done + cfg.hopLatencyCycles;
    }
    return cursor;
}

void
Network::reserveAndSchedule(const std::vector<LinkId> &route,
                            Packet &&packet, Cycles extra_delay)
{
    Cycles arrival = reserveRoute(route, packet) + extra_delay;
    Packet p = std::move(packet);
    // The arrival event mutates the destination node's state.
    EventQueue::PartitionScope scope(events, p.dst);
    events.schedule(arrival, [this, p = std::move(p)]() mutable {
        arrive(std::move(p), events.now());
    });
}

void
Network::arrive(Packet &&packet, Cycles time)
{
    // The destination may have died while the packet was in flight.
    if (topo.anyOutages() && !topo.nodeAlive(packet.dst, time)) {
        m.deadNodePackets.inc();
        return;
    }
    if (deliverTap && !deliverTap(std::move(packet), time))
        return;
    deliverFn(std::move(packet), time);
}

} // namespace ct::sim
