#include "reliable_layer.h"

#include <cmath>
#include <map>
#include <unordered_map>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "rt/chained_layer.h"
#include "sim/packet.h"
#include "sim/trace_tracks.h"
#include "util/logging.h"

namespace ct::rt {

namespace {

using sim::Cycles;
using sim::Machine;
using sim::NodeId;
using sim::Packet;
using sim::PacketKind;

/**
 * Per-run transport state. Interposed on the network via the
 * send/deliver taps; all traffic of the wrapped layer flows through
 * it, its own control traffic (acks, nacks, retransmissions) bypasses
 * the taps via sendRaw/deliverDirect.
 */
struct Transport
{
    /** One retained outbound packet awaiting acknowledgment. */
    struct Pending
    {
        Packet packet;
        int retries = 0;
        /** Bumped on every (re)transmission; a timeout event only
         *  acts if its captured generation is still current. */
        std::uint64_t generation = 0;
        /** Armed retransmit timer; cancelled when the packet is
         *  retired so a finished run never waits out dead timeouts. */
        sim::EventQueue::Timer timer;
        /** First-transmission time, for ack round-trip sampling. */
        Cycles sentAt = 0;
    };

    /** Sender + receiver state of one directed (src,dst) channel. */
    struct Channel
    {
        // Sender side.
        std::uint32_t nextSeq = 0;
        std::map<std::uint32_t, Pending> pending;
        // Receiver side.
        std::uint32_t expected = 0;
        std::map<std::uint32_t, Packet> reorder;
    };

    /** Registry handles behind the ReliableStats snapshot. */
    struct Metrics
    {
        obs::Counter dataPackets;
        obs::Counter retransmits;
        obs::Counter acksSent;
        obs::Counter nacksSent;
        obs::Counter duplicatesDropped;
        obs::Counter checksumFailures;
        obs::Counter outOfOrder;
        obs::Counter abandoned;
        obs::Counter retryExhausted;
        obs::Counter degradations;
        obs::Counter deadEndpointDrops;
        obs::Counter routeSuspects;
        obs::Counter rttSumCycles;
        obs::Counter rttSamples;
    };

    Machine &machine;
    const ReliableOptions &opts;
    ReliableStats &stats;
    obs::Tracer *tracer;
    Metrics m;
    /**
     * Channel state keyed on the (src,dst) pairs that have actually
     * carried traffic. A dense nodeCount()² table would be 16.7M
     * Channel structs at 4096 nodes (and its index arithmetic
     * silently overflowed std::size_t first); the active set is
     * bounded by the traffic pattern, not the machine capacity.
     */
    std::unordered_map<std::uint64_t, Channel> channels;

    Transport(Machine &machine, const ReliableOptions &opts,
              ReliableStats &stats)
        : machine(machine), opts(opts), stats(stats),
          tracer(machine.tracer())
    {
        obs::MetricsRegistry &reg = machine.metrics();
        m.dataPackets = reg.counter("rt.reliable.data_packets");
        m.retransmits = reg.counter("rt.reliable.retransmits");
        m.acksSent = reg.counter("rt.reliable.acks_sent");
        m.nacksSent = reg.counter("rt.reliable.nacks_sent");
        m.duplicatesDropped =
            reg.counter("rt.reliable.duplicates_dropped");
        m.checksumFailures =
            reg.counter("rt.reliable.checksum_failures");
        m.outOfOrder = reg.counter("rt.reliable.out_of_order");
        m.abandoned = reg.counter("rt.reliable.abandoned");
        m.retryExhausted =
            reg.counter("rt.reliable.retry_exhausted");
        m.degradations = reg.counter("rt.reliable.degradations");
        m.deadEndpointDrops =
            reg.counter("rt.reliable.dead_endpoint_drops");
        m.routeSuspects = reg.counter("rt.reliable.route_suspects");
        m.rttSumCycles = reg.counter("rt.reliable.rtt_sum_cycles");
        m.rttSamples = reg.counter("rt.reliable.rtt_samples");
        // The cells count one run at a time.
        m.dataPackets.reset();
        m.retransmits.reset();
        m.acksSent.reset();
        m.nacksSent.reset();
        m.duplicatesDropped.reset();
        m.checksumFailures.reset();
        m.outOfOrder.reset();
        m.abandoned.reset();
        m.retryExhausted.reset();
        m.degradations.reset();
        m.deadEndpointDrops.reset();
        m.routeSuspects.reset();
        m.rttSumCycles.reset();
        m.rttSamples.reset();
    }

    /** Materialize the run's ReliableStats from the registry. */
    void
    snapshot()
    {
        stats.dataPackets = m.dataPackets.value();
        stats.retransmits = m.retransmits.value();
        stats.acksSent = m.acksSent.value();
        stats.nacksSent = m.nacksSent.value();
        stats.duplicatesDropped = m.duplicatesDropped.value();
        stats.checksumFailures = m.checksumFailures.value();
        stats.outOfOrder = m.outOfOrder.value();
        stats.abandoned = m.abandoned.value();
        stats.retryExhausted = m.retryExhausted.value();
        stats.degradations = m.degradations.value();
        stats.deadEndpointDrops = m.deadEndpointDrops.value();
        stats.routeSuspects = m.routeSuspects.value();
        stats.rttSumCycles = m.rttSumCycles.value();
        stats.rttSamples = m.rttSamples.value();
        stats.activeChannels = channels.size();
    }

    /** Overflow-proof (src,dst) key: two 32-bit halves, no N² index
     *  arithmetic that could wrap at large node counts. */
    static std::uint64_t
    channelKey(NodeId src, NodeId dst)
    {
        return (static_cast<std::uint64_t>(
                    static_cast<std::uint32_t>(src))
                << 32) |
               static_cast<std::uint32_t>(dst);
    }

    /** Channel state, materialized on first touch. */
    Channel &
    channel(NodeId src, NodeId dst)
    {
        return channels[channelKey(src, dst)];
    }

    /** Disarm every retransmit timer of @p c's pending packets. */
    static void
    cancelPending(Channel &c)
    {
        for (auto &[rseq, entry] : c.pending)
            entry.timer.cancel();
    }

    /** Drop all per-channel state (between phases of a run). */
    void
    reset()
    {
        for (auto &[key, c] : channels)
            cancelPending(c);
        channels.clear();
    }

    Cycles
    timeoutAfter(int retries) const
    {
        double t = static_cast<double>(opts.retransmitTimeout) *
                   std::pow(opts.backoff, retries);
        return static_cast<Cycles>(t);
    }

    void
    scheduleTimeout(Pending &entry, NodeId src, NodeId dst,
                    std::uint32_t rseq, Cycles delay)
    {
        // A NACK-triggered retransmission re-arms while the original
        // timer is still pending; disarm it so the dead event cannot
        // hold the clock hostage at run end.
        entry.timer.cancel();
        std::uint64_t generation = entry.generation;
        entry.timer = machine.events().scheduleAfterCancellable(
            delay, [this, src, dst, rseq, generation]() {
                onTimeout(src, dst, rseq, generation);
            });
    }

    /** Outbound tap: sequence, checksum, retain, arm the timer. */
    bool
    onSend(Packet &p)
    {
        Channel &c = channel(p.src, p.dst);
        p.kind = PacketKind::Data;
        p.rseq = c.nextSeq++;
        sim::sealChecksum(p);
        m.dataPackets.inc();
        Pending &entry = c.pending[p.rseq];
        entry.packet = p;
        entry.sentAt = machine.events().now();
        scheduleTimeout(entry, p.src, p.dst, p.rseq,
                        timeoutAfter(0));
        return true; // network transmits the sealed packet
    }

    void
    noteAbandonedChannel(NodeId src, NodeId dst)
    {
        for (const auto &ch : stats.abandonedChannels)
            if (ch.first == src && ch.second == dst)
                return;
        stats.abandonedChannels.emplace_back(src, dst);
    }

    /**
     * Watchdog: a retransmission timeout is the transport's failure
     * detector. Before spending another retry, ask the topology
     * whether this channel can still deliver at all. A dead endpoint
     * swallows every (re)transmission and a partitioned route has no
     * live path, so in both cases further retries are pointless:
     * drop the channel's pending traffic and let the operation wind
     * down.
     * Returns true when the channel was written off.
     */
    bool
    routeDead(Channel &c, NodeId src, NodeId dst)
    {
        sim::Topology &topo = machine.topology();
        if (!topo.anyOutages())
            return false;
        Cycles now = machine.events().now();
        // A flapping component is down *transiently*: it will come
        // back, so retrying (with backoff) is the right call and
        // writing the channel off would lose recoverable traffic.
        if (topo.nodeRecovers(src, now) || topo.nodeRecovers(dst, now))
            return false;
        if (!topo.nodeAlive(src, now) || !topo.nodeAlive(dst, now)) {
            cancelPending(c);
            m.deadEndpointDrops.add(c.pending.size());
            if (tracer)
                tracer->instant(
                    "transport", "dead-endpoint",
                    sim::traceTrack(src, sim::TraceTrack::Net), now,
                    "dst", static_cast<std::uint64_t>(dst),
                    "pending", c.pending.size());
            util::warn("ReliableLayer: endpoint died on channel ",
                       src, "->", dst, "; dropping ",
                       c.pending.size(), " pending packet(s)");
            c.pending.clear();
            return true;
        }
        if (!topo.healthyRoute(src, dst, now).ok) {
            if (topo.anyFlaps())
                return false; // a flapped link may restore the route
            cancelPending(c);
            m.routeSuspects.add(c.pending.size());
            if (tracer)
                tracer->instant(
                    "transport", "route-suspect",
                    sim::traceTrack(src, sim::TraceTrack::Net), now,
                    "dst", static_cast<std::uint64_t>(dst),
                    "pending", c.pending.size());
            util::warn("ReliableLayer: no live route on channel ",
                       src, "->", dst, "; dropping ",
                       c.pending.size(), " pending packet(s)");
            noteAbandonedChannel(src, dst);
            c.pending.clear();
            return true;
        }
        return false;
    }

    void
    retransmit(NodeId src, NodeId dst, std::uint32_t rseq)
    {
        Channel &c = channel(src, dst);
        auto it = c.pending.find(rseq);
        if (it == c.pending.end())
            return; // acknowledged in the meantime
        if (routeDead(c, src, dst))
            return;
        Pending &entry = it->second;
        ++entry.retries;
        if (entry.retries > opts.maxRetries) {
            entry.timer.cancel();
            m.retryExhausted.inc();
            m.abandoned.inc();
            if (tracer) {
                // Policy-relevant event: a controller reading the
                // trace sees budget exhaustion as a first-class
                // decision input, distinct from the transport churn.
                tracer->instant(
                    "policy", "retry-exhausted",
                    sim::traceTrack(src, sim::TraceTrack::Net),
                    machine.events().now(), "dst",
                    static_cast<std::uint64_t>(dst), "budget",
                    static_cast<std::uint64_t>(opts.maxRetries));
                tracer->instant(
                    "transport", "abandon",
                    sim::traceTrack(src, sim::TraceTrack::Net),
                    machine.events().now(), "dst",
                    static_cast<std::uint64_t>(dst), "rseq", rseq);
            }
            noteAbandonedChannel(src, dst);
            util::warn("ReliableLayer: abandoning packet rseq=", rseq,
                       " on channel ", src, "->", dst, " after ",
                       opts.maxRetries, " retries");
            c.pending.erase(it);
            return;
        }
        ++entry.generation;
        entry.timer.cancel();
        m.retransmits.inc();
        if (tracer)
            tracer->instant(
                "transport", "retransmit",
                sim::traceTrack(src, sim::TraceTrack::Net),
                machine.events().now(), "dst",
                static_cast<std::uint64_t>(dst), "rseq", rseq);
        Packet copy = entry.packet;
        scheduleTimeout(entry, src, dst, rseq,
                        timeoutAfter(entry.retries));
        machine.network().sendRaw(std::move(copy));
    }

    void
    onTimeout(NodeId src, NodeId dst, std::uint32_t rseq,
              std::uint64_t generation)
    {
        Channel &c = channel(src, dst);
        auto it = c.pending.find(rseq);
        if (it == c.pending.end())
            return; // acknowledged
        if (it->second.generation != generation)
            return; // a newer transmission armed its own timer
        retransmit(src, dst, rseq);
    }

    void
    sendControl(PacketKind kind, NodeId from, NodeId to,
                std::uint32_t ctrl)
    {
        Packet p;
        p.kind = kind;
        p.src = from;
        p.dst = to;
        p.ctrl = ctrl;
        if (kind == PacketKind::Ack)
            m.acksSent.inc();
        else
            m.nacksSent.inc();
        machine.network().sendRaw(std::move(p));
    }

    /** Cumulative ack: everything below @p upto has been received. */
    void
    onAck(NodeId sender, NodeId receiver, std::uint32_t upto)
    {
        Channel &c = channel(sender, receiver);
        Cycles now = machine.events().now();
        auto it = c.pending.begin();
        while (it != c.pending.end() && it->first < upto) {
            it->second.timer.cancel();
            // Karn's rule: only never-retransmitted packets give an
            // unambiguous round-trip sample (a retransmitted one
            // could be acked for either copy).
            if (it->second.generation == 0) {
                m.rttSumCycles.add(now - it->second.sentAt);
                m.rttSamples.inc();
            }
            it = c.pending.erase(it);
        }
    }

    void
    onNack(NodeId sender, NodeId receiver, std::uint32_t rseq)
    {
        retransmit(sender, receiver, rseq);
    }

    /** Inbound tap; returns false when the transport consumed it. */
    bool
    onArrive(Packet &&p, Cycles time)
    {
        if (p.kind == PacketKind::Ack) {
            // The ack arrived at the data sender (p.dst); the data
            // channel it refers to runs the other way.
            onAck(p.dst, p.src, p.ctrl);
            return false;
        }
        if (p.kind == PacketKind::Nack) {
            onNack(p.dst, p.src, p.ctrl);
            return false;
        }

        Channel &c = channel(p.src, p.dst);
        if (!sim::checksumOk(p)) {
            m.checksumFailures.inc();
            if (tracer)
                tracer->instant(
                    "transport", "checksum-fail",
                    sim::traceTrack(p.dst, sim::TraceTrack::Net),
                    time, "src", static_cast<std::uint64_t>(p.src),
                    "rseq", p.rseq);
            sendControl(PacketKind::Nack, p.dst, p.src, p.rseq);
            return false;
        }
        if (p.rseq < c.expected) {
            // Duplicate of an already-released packet (network dup or
            // retransmission whose ack was lost): re-ack, drop.
            m.duplicatesDropped.inc();
            sendControl(PacketKind::Ack, p.dst, p.src, c.expected);
            return false;
        }
        if (p.rseq > c.expected) {
            m.outOfOrder.inc();
            if (c.reorder.find(p.rseq) != c.reorder.end())
                m.duplicatesDropped.inc();
            else
                c.reorder.emplace(p.rseq, std::move(p));
            // Dup-ack keeps the sender's view of progress current.
            sendControl(PacketKind::Ack, p.dst, p.src, c.expected);
            return false;
        }

        // In order: release to the wrapped layer, then drain every
        // buffered successor that is now in sequence.
        NodeId src = p.src, dst = p.dst;
        machine.network().deliverDirect(std::move(p), time);
        ++c.expected;
        auto next = c.reorder.find(c.expected);
        while (next != c.reorder.end()) {
            machine.network().deliverDirect(std::move(next->second),
                                            time);
            c.reorder.erase(next);
            ++c.expected;
            next = c.reorder.find(c.expected);
        }
        sendControl(PacketKind::Ack, dst, src, c.expected);
        return false;
    }
};

} // namespace

ReliableLayer::ReliableLayer(std::unique_ptr<MessageLayer> inner,
                             ReliableOptions options)
    : inner(std::move(inner)), opts(options)
{
    if (!this->inner)
        util::fatal("ReliableLayer: no inner layer");
    if (opts.maxRetries < 0)
        util::fatal("ReliableLayer: maxRetries must be >= 0");
    if (opts.backoff < 1.0)
        util::fatal("ReliableLayer: backoff must be >= 1");
    if (opts.retransmitTimeout == 0)
        util::fatal("ReliableLayer: retransmitTimeout must be "
                    "positive");
}

std::string
ReliableLayer::name() const
{
    return "reliable+" + inner->name();
}

RunResult
ReliableLayer::run(sim::Machine &machine, const CommOp &op)
{
    counters = ReliableStats{};
    Transport transport(machine, opts, counters);
    sim::Network &net = machine.network();
    net.setSendTap(
        [&transport](Packet &p) { return transport.onSend(p); });
    net.setDeliverTap([&transport](Packet &&p, Cycles time) {
        return transport.onArrive(std::move(p), time);
    });

    RunResult result = inner->run(machine, op);

    // The ADP-datapath flag is sticky and machine-wide, so it also
    // reads true in every later run on this machine. Buffer packing
    // (and PVM, which lowers to it) deposits only contiguous blocks:
    // a dead ADP datapath cannot have stopped it, and rerunning it
    // through packing would only pay the round twice.
    bool engine_failed = false;
    if (!dynamic_cast<const PackingLayer *>(inner.get())) {
        for (NodeId n = 0; n < machine.nodeCount(); ++n)
            engine_failed |=
                machine.node(n).depositEngine().adpFailed();
    }

    if (engine_failed && opts.degradeToPacking) {
        // The wrapped layer lost its deposit engine mid-step. Re-run
        // the whole operation through the buffer-packing path, which
        // needs only contiguous deposits; sources are untouched, so
        // the rerun rewrites every destination correctly. The
        // transport stays interposed: the recovery phase runs under
        // the same wire faults.
        util::warn("ReliableLayer: permanent deposit-engine failure "
                   "during '",
                   inner->name(),
                   "'; degrading to the buffer-packing path");
        counters.degraded = true;
        machine.metrics().counter("rt.reliable.degradations").inc();
        if (auto *t = machine.tracer()) {
            t->instant("transport", "degrade", machine.opTrack(),
                       machine.events().now());
            // The style actually changed: a policy-level transition.
            t->instant("policy", "degrade-to-packing",
                       machine.opTrack(), machine.events().now());
        }
        transport.reset();
        PackingLayer fallback(opts.fallback);
        result = fallback.run(machine, op);
        // The packing makespan is measured on the machine's absolute
        // clock, so it already contains the aborted chained phase.
        result.degraded = true;
    }

    transport.snapshot();
    net.setSendTap(nullptr);
    net.setDeliverTap(nullptr);
    return result;
}

std::unique_ptr<ReliableLayer>
makeReliableChained(ReliableOptions options)
{
    return std::make_unique<ReliableLayer>(
        std::make_unique<ChainedLayer>(), options);
}

} // namespace ct::rt
