#include "chained_layer.h"

#include "obs/trace.h"
#include "sim/ring.h"
#include "sim/trace_tracks.h"
#include "util/logging.h"

namespace ct::rt {

namespace {

using sim::Framing;
using sim::Machine;
using sim::NodeId;
using sim::Packet;
using sim::TraceTrack;
using sim::traceTrack;

/** Execution state of the whole operation. */
struct Ctx
{
    Machine &machine;
    const CommOp &op;
    const ChainedOptions &opts;
    bool engineReceive; // deposit engine vs co-processor receive

    std::vector<FlowGroup> groups;
    /**
     * The operation's endpoints, slot-mapped. All per-node state
     * below is indexed by active slot, so an exchange between a
     * handful of nodes on an 8192-node machine allocates a handful
     * of entries, not 8192. The set is immutable after construction
     * (parallel windows read it concurrently).
     */
    ActiveSet active;

    struct GroupRun
    {
        std::uint64_t nextWord = 0; // group-space cursor
        int credits = layerCredits;
        bool setupPaid = false;
    };

    std::vector<GroupRun> runs;
    /** Group indices each active node still has to send, in order. */
    std::vector<sim::Ring<std::size_t>> senderQueue;
    /** Per-node flags are char, not vector<bool>: adjacent nodes may
     *  flip their flags concurrently inside a parallel window, and
     *  bit-packed storage would make that a data race. */
    std::vector<char> procBusy;
    /** Packets waiting for the receive co-processor, per node. */
    std::vector<sim::Ring<Packet>> coprocQueue;
    std::vector<Cycles> coprocFreeAt;
    std::vector<char> coprocBusy;
    std::vector<Cycles> fetchFreeAt;
    /** Last deposit completion seen by each *sender* (credit events
     *  run in the sender's partition); the makespan is the max. */
    std::vector<Cycles> lastDoneByNode;
    bool refusalWarned = false;
    obs::Tracer *tracer;

    Ctx(Machine &machine, const CommOp &op, const ChainedOptions &opts)
        : machine(machine), op(op), opts(opts), groups(groupFlows(op)),
          active(groups), runs(groups.size()),
          procBusy(active.count(), 0), coprocQueue(active.count()),
          coprocFreeAt(active.count(), 0),
          coprocBusy(active.count(), 0),
          fetchFreeAt(active.count(), 0),
          lastDoneByNode(active.count(), 0), tracer(machine.tracer())
    {
        engineReceive = machine.config().node.deposit.anyPattern;
        if (opts.dmaFeed) {
            // DMA-fed direct transfers land through the contiguous
            // deposit datapath, never the co-processor.
            if (!machine.config().node.fetch.enabled)
                util::fatal("ChainedLayer: DMA feed needs a fetch "
                            "engine");
            if (!machine.config().node.deposit.enabled)
                util::fatal("ChainedLayer: DMA feed needs a deposit "
                            "engine");
        } else if (!engineReceive &&
                   !machine.config().node.hasCoProcessor) {
            util::fatal("ChainedLayer: machine has neither a flexible "
                        "deposit engine nor a receive co-processor");
        }
        // Each node's send queue is sized once, for every group it
        // sends; receive queues grow with the backlog that forms.
        std::vector<std::size_t> sends(active.count());
        for (const FlowGroup &group : groups)
            ++sends[active.slot(group.src)];
        senderQueue.reserve(active.count());
        for (std::size_t count : sends)
            senderQueue.emplace_back(count);
        for (std::size_t g = 0; g < groups.size(); ++g)
            senderQueue[active.slot(groups[g].src)].push_back(g);
    }

    void trySend(NodeId node);
    void tryReceive(NodeId node);
    void deliver(Packet &&pkt, Cycles time);
    void chunkDeposited(std::size_t group_idx, Cycles time);
};

void
Ctx::trySend(NodeId node)
{
    std::size_t n = active.slot(node);
    if (procBusy[n])
        return;
    auto &queue = senderQueue[n];

    // Partners are served in order: all data for one destination is
    // streamed before the annex is switched to the next.
    while (!queue.empty()) {
        std::size_t g = queue.front();
        const FlowGroup &group = groups[g];
        GroupRun &run = runs[g];
        if (run.nextWord >= group.totalWords()) {
            queue.pop_front();
            continue;
        }
        if (run.credits == 0)
            return; // re-triggered when a chunk is deposited

        auto [pos, offset] = group.locate(run.nextWord);
        std::size_t flow_idx = group.flows[pos];
        const Flow &flow = op.flows[flow_idx];

        // Remote stores through a deposit engine carry their own
        // addresses, so a chunk may stream across flow boundaries
        // within the partner group; the co-processor receive path
        // (no engine) needs software framing per flow.
        std::uint64_t limit =
            (engineReceive && !opts.dmaFeed)
                ? group.totalWords() - run.nextWord
                : flow.words - offset;
        std::uint64_t count =
            std::min<std::uint64_t>(layerChunkWords, limit);
        std::uint64_t chunk_first = run.nextWord;
        run.nextWord += count;
        --run.credits;

        bool contiguous = flow.srcWalk.pattern.isContiguous() &&
                          flow.dstWalk.pattern.isContiguous() &&
                          offset + count <= flow.words;

        procBusy[n] = true;
        sim::Processor &proc = machine.node(node).processor();
        Cycles now = machine.events().now();
        Cycles elapsed = 0;
        if (!run.setupPaid) {
            elapsed += opts.flowSetupOverhead;
            run.setupPaid = true;
        }

        Packet pkt;
        pkt.src = group.src;
        pkt.dst = group.dst;
        pkt.flow = static_cast<std::uint32_t>(flow_idx);
        pkt.seq = static_cast<std::uint32_t>(g);
        pkt.framing =
            contiguous ? Framing::DataOnly : Framing::AddrDataPair;
        pkt.destBase = offset; // in-flow first word, see deliver()

        if (opts.dmaFeed) {
            // 1F0: the fetch engine reads the block and injects it;
            // the processor only pays the kick-off and is released
            // while the engine streams.
            if (!contiguous)
                util::fatal("ChainedLayer: DMA feed requires "
                            "contiguous flows");
            sim::Node &sender = machine.node(node);
            sim::Addr src_addr = flow.srcWalk.base + offset * 8;
            pkt.words.resize(count);
            for (std::uint64_t i = 0; i < count; ++i)
                pkt.words[i] = sender.ram().readWord(src_addr + i * 8);
            pkt.destBase = flow.dstWalk.base + offset * 8;
            Cycles fetch_start =
                std::max(now + elapsed, fetchFreeAt[n]);
            Cycles fetch_elapsed =
                sender.fetchEngine().fetch(src_addr, count * 8);
            fetchFreeAt[n] = fetch_start + fetch_elapsed;
            if (tracer) {
                tracer->span("stage", "dma-kick",
                             traceTrack(node, TraceTrack::Cpu), now,
                             elapsed, "words", count);
                tracer->span("resource", "fetch-dma",
                             traceTrack(node, TraceTrack::Fetch),
                             fetch_start, fetch_elapsed, "bytes",
                             count * 8);
            }
            machine.events().schedule(
                fetchFreeAt[n],
                [this, pkt = std::move(pkt)]() mutable {
                    machine.network().send(std::move(pkt));
                });
            machine.events().scheduleAfter(elapsed, [this, node]() {
                procBusy[active.slot(node)] = false;
                trySend(node);
            });
            return;
        }

        if (pkt.framing == Framing::DataOnly) {
            elapsed += proc.gatherToPort(flow.srcWalk, offset, count,
                                         now + elapsed, pkt.words);
            pkt.destBase = flow.dstWalk.base + offset * 8;
        } else {
            // Gather and address-generate segment by segment, into
            // lists sized once for the whole chunk.
            pkt.words.reserve(count);
            pkt.addrs.reserve(count);
            std::uint64_t done = 0;
            while (done < count) {
                auto [seg_pos, seg_off] =
                    group.locate(chunk_first + done);
                const Flow &seg_flow = op.flows[group.flows[seg_pos]];
                std::uint64_t seg_count = std::min<std::uint64_t>(
                    count - done, seg_flow.words - seg_off);
                elapsed += proc.gatherToPort(seg_flow.srcWalk,
                                             seg_off, seg_count,
                                             now + elapsed, pkt.words);
                elapsed += proc.computeRemoteAddrs(
                    seg_flow.dstWalkOnSender, seg_off, seg_count,
                    now + elapsed, pkt.addrs);
                done += seg_count;
            }
        }

        if (tracer)
            tracer->span("stage",
                         pkt.framing == Framing::DataOnly
                             ? "gather"
                             : "gather+addr",
                         traceTrack(node, TraceTrack::Cpu), now,
                         elapsed, "words", count);
        machine.events().scheduleAfter(
            elapsed, [this, node, pkt = std::move(pkt)]() mutable {
                machine.network().send(std::move(pkt));
                procBusy[active.slot(node)] = false;
                trySend(node);
            });
        return;
    }
}

void
Ctx::chunkDeposited(std::size_t group_idx, Cycles time)
{
    std::size_t src = active.slot(groups[group_idx].src);
    lastDoneByNode[src] = std::max(lastDoneByNode[src], time);
    ++runs[group_idx].credits;
    trySend(groups[group_idx].src);
}

void
Ctx::tryReceive(NodeId node)
{
    std::size_t n = active.slot(node);
    if (coprocBusy[n] || coprocQueue[n].empty())
        return;
    Packet pkt = std::move(coprocQueue[n].front());
    coprocQueue[n].pop_front();
    coprocBusy[n] = true;

    const Flow &flow = op.flows[pkt.flow];
    std::uint64_t first = pkt.destBase; // in-flow first word
    Cycles now = machine.events().now();
    Cycles start = std::max(now, coprocFreeAt[n]);
    sim::Processor &coproc = machine.node(node).coProcessor();
    Cycles elapsed =
        coproc.scatterFromPort(flow.dstWalk, first, pkt.words.size(),
                               start, pkt.words.data());
    coprocFreeAt[n] = start + elapsed;
    if (tracer)
        tracer->span("stage", "recv-scatter",
                     traceTrack(node, TraceTrack::CoProc), start,
                     elapsed, "words", pkt.words.size());

    std::size_t group_idx = pkt.seq;
    // The completion used to be one event doing sender work (the
    // credit return) and receiver work (freeing the co-processor) in
    // one callback; split so each side runs in its own partition.
    // The credit event is scheduled first, preserving the original
    // intra-callback order -- chunkDeposited() touches only sender
    // state, so the serial timeline is unchanged by the split.
    {
        sim::EventQueue::PartitionScope scope(
            machine.events(), groups[group_idx].src);
        machine.events().schedule(
            start + elapsed, [this, group_idx]() {
                chunkDeposited(group_idx, machine.events().now());
            });
    }
    machine.events().schedule(start + elapsed, [this, node]() {
        coprocBusy[active.slot(node)] = false;
        tryReceive(node);
    });
}

void
Ctx::deliver(Packet &&pkt, Cycles time)
{
    NodeId node = pkt.dst;
    // DMA-fed data-only chunks always land through the deposit
    // engine, even on machines that otherwise receive via the
    // co-processor.
    if (engineReceive ||
        (opts.dmaFeed && pkt.framing == Framing::DataOnly)) {
        if (pkt.framing == Framing::DataOnly) {
            // destBase already holds the absolute address.
        }
        sim::DepositEngine &engine =
            machine.node(node).depositEngine();
        if (!engine.admit(pkt)) {
            // Permanent ADP-datapath failure (fault injection): the
            // chunk is lost and its credit is withheld, so the sender
            // winds down instead of crashing. A reliable wrapper
            // detects the dead engine afterwards and degrades the
            // whole step to buffer packing.
            if (!refusalWarned) {
                util::warn("ChainedLayer: deposit engine refused a "
                           "chunk on node ",
                           node, "; winding down this flow");
                refusalWarned = true;
            }
            if (tracer)
                tracer->instant(
                    "resource", "deposit-refused",
                    traceTrack(node, TraceTrack::Deposit), time);
            return;
        }
        std::size_t group_idx = pkt.seq;
        Cycles dep_start = std::max(time, engine.busyUntil());
        Cycles done = engine.deposit(pkt, time);
        if (tracer)
            tracer->span("resource", "deposit",
                         traceTrack(node, TraceTrack::Deposit),
                         dep_start, done - dep_start, "words",
                         pkt.words.size());
        // Credit return: sender-partition work, scheduled from the
        // receiver's arrival event.
        sim::EventQueue::PartitionScope scope(
            machine.events(), groups[group_idx].src);
        machine.events().schedule(done, [this, group_idx]() {
            chunkDeposited(group_idx, machine.events().now());
        });
        return;
    }
    // Co-processor receive path (Paragon): data-only packets carry
    // an absolute destBase, but the scatter kernel needs the in-flow
    // offset; recover it from the walk base.
    if (pkt.framing == Framing::DataOnly) {
        const Flow &flow = op.flows[pkt.flow];
        pkt.destBase = (pkt.destBase - flow.dstWalk.base) / 8;
    }
    coprocQueue[active.slot(node)].push_back(std::move(pkt));
    tryReceive(node);
}

} // namespace

RunResult
ChainedLayer::run(sim::Machine &machine, const CommOp &op)
{
    Cycles op_start = machine.events().now();
    Ctx ctx(machine, op, opts);
    machine.network().setDeliver(
        [&ctx](Packet &&pkt, Cycles time) {
            ctx.deliver(std::move(pkt), time);
        });
    // Kick off the active endpoints only (ascending, like the old
    // all-nodes loop): trySend() is a no-op for a node with nothing
    // queued, so skipping idle nodes leaves the event schedule -- and
    // therefore every downstream byte -- unchanged.
    for (NodeId node : ctx.active.nodeList()) {
        // The kick-off runs outside any event; tag each node's
        // initial sends with its own partition.
        sim::EventQueue::PartitionScope scope(machine.events(), node);
        ctx.trySend(node);
    }
    machine.events().run();

    // Settle write queues, then pay the end-of-step synchronization
    // (barrier + cache invalidation after background deposits). Only
    // the operation's endpoints touched memory, so only they can owe
    // a drain (an idle node's fence is zero).
    Cycles makespan = 0;
    for (Cycles done : ctx.lastDoneByNode)
        makespan = std::max(makespan, done);
    Cycles extra = 0;
    for (NodeId node : ctx.active.nodeList())
        extra = std::max(extra,
                         machine.node(node).memory().fence(makespan));
    makespan += extra + opts.stepSyncCycles;

    if (auto *t = machine.tracer())
        t->span("op", opts.dmaFeed ? "chained-dma" : "chained",
                machine.opTrack(), op_start,
                makespan > op_start ? makespan - op_start : 0,
                "bytes", op.totalBytes());

    RunResult result;
    result.makespan = makespan;
    result.payloadBytes = op.totalBytes();
    result.maxBytesPerSender = op.maxBytesPerSender();
    return result;
}

sim::Cycles
ChainedLayer::parallelLookahead(const sim::Machine &machine,
                                const CommOp &op) const
{
    (void)op;
    // The layer's fastest cross-node interaction beyond the wire is
    // the credit return, and a deposited chunk never returns its
    // credit sooner than the deposit engine's fixed per-packet cost
    // after arrival (the co-processor path's scatter is far slower
    // than that floor; the engine's commit check would catch an
    // overclaim loudly).
    sim::Cycles per_packet =
        machine.config().node.deposit.perPacketCycles;
    return per_packet > 0 ? per_packet : 1;
}

} // namespace ct::rt
