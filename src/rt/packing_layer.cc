#include "packing_layer.h"

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

constexpr std::uint64_t chunkBytes = layerChunkWords * 8;

/** Execution state of one packing run. */
struct Ctx
{
    Machine &machine;
    const CommOp &op;
    const PackingOptions &opts;

    std::vector<FlowGroup> groups;
    /** The operation's endpoints, slot-mapped; all per-node state
     *  below is indexed by active slot (O(active endpoints), not
     *  O(machine capacity)). Immutable after construction. */
    ActiveSet active;

    struct GroupRun
    {
        std::uint64_t nextWord = 0; // group-space cursor
        int credits = layerCredits;
        bool senderOverheadPaid = false;
        bool receiverOverheadPaid = false;
        Addr sendBuf = 0;    // ring of layerCredits chunks on src
        Addr recvBuf = 0;    // ring on dst
        Addr sysSendBuf = 0; // PVM system buffers
        Addr sysRecvBuf = 0;
    };

    struct UnpackTask
    {
        std::size_t group;
        std::uint64_t first; // group-space
        std::uint64_t count;
    };

    std::vector<GroupRun> runs;
    std::vector<sim::Ring<std::size_t>> senderQueue;
    std::vector<sim::Ring<UnpackTask>> unpackQueue;
    /** char, not vector<bool>: adjacent nodes flip their flags
     *  concurrently inside a parallel window, and bit-packed storage
     *  would make that a data race. */
    std::vector<char> procBusy;
    std::vector<Cycles> fetchFreeAt;
    /** Last unpack completion per *receiver*; makespan is the max. */
    std::vector<Cycles> lastDoneByNode;
    obs::Tracer *tracer;

    Ctx(Machine &machine, const CommOp &op, const PackingOptions &opts)
        : machine(machine), op(op), opts(opts),
          groups(groupFlows(op)), active(groups), runs(groups.size()),
          unpackQueue(active.count()), procBusy(active.count(), 0),
          fetchFreeAt(active.count(), 0),
          lastDoneByNode(active.count(), 0), tracer(machine.tracer())
    {
        // Each node's send queue is sized once, for every group it
        // sends; unpack queues grow with the backlog that forms.
        std::vector<std::size_t> sends(active.count());
        for (const FlowGroup &group : groups)
            ++sends[active.slot(group.src)];
        senderQueue.reserve(active.count());
        for (std::size_t count : sends)
            senderQueue.emplace_back(count);
        const Bytes ring = layerRingBytes;
        for (std::size_t g = 0; g < groups.size(); ++g) {
            const FlowGroup &group = groups[g];
            GroupRun &run = runs[g];
            run.sendBuf = machine.node(group.src).ram().alloc(ring);
            run.recvBuf = machine.node(group.dst).ram().alloc(ring);
            if (opts.systemBufferCopies) {
                run.sysSendBuf =
                    machine.node(group.src).ram().alloc(ring);
                run.sysRecvBuf =
                    machine.node(group.dst).ram().alloc(ring);
            }
            senderQueue[active.slot(group.src)].push_back(g);
        }
    }

    static Addr
    slotAddr(Addr ring_base, std::uint64_t group_word)
    {
        std::uint64_t slot =
            (group_word / layerChunkWords) % layerCredits;
        return ring_base + slot * chunkBytes;
    }

    /**
     * Apply @p body to each (flow index, in-flow offset, count,
     * group-space offset) segment of the group-space chunk
     * [first, first+count).
     */
    template <typename Fn>
    void
    forEachSegment(const FlowGroup &group, std::uint64_t first,
                   std::uint64_t count, Fn &&body)
    {
        std::uint64_t done = 0;
        while (done < count) {
            auto [pos, offset] = group.locate(first + done);
            const Flow &flow = op.flows[group.flows[pos]];
            std::uint64_t n = std::min<std::uint64_t>(
                count - done, flow.words - offset);
            body(group.flows[pos], offset, n, done);
            done += n;
        }
    }

    void tryProc(NodeId node);
    void runGather(NodeId node, std::size_t group_idx,
                   std::uint64_t first, std::uint64_t count);
    void runUnpack(NodeId node, const UnpackTask &task);
    void deliver(Packet &&pkt, Cycles time);
};

void
Ctx::tryProc(NodeId node)
{
    std::size_t n = active.slot(node);
    if (procBusy[n])
        return;

    // Draining arrived chunks has priority over producing new ones:
    // it is what returns credits and keeps the pipeline moving.
    if (!unpackQueue[n].empty()) {
        UnpackTask task = unpackQueue[n].front();
        unpackQueue[n].pop_front();
        runUnpack(node, task);
        return;
    }

    auto &queue = senderQueue[n];
    while (!queue.empty()) {
        std::size_t g = queue.front();
        const FlowGroup &group = groups[g];
        GroupRun &run = runs[g];
        if (run.nextWord >= group.totalWords()) {
            queue.pop_front();
            continue;
        }
        if (run.credits == 0)
            return; // re-triggered when credits return
        std::uint64_t first = run.nextWord;
        std::uint64_t count = std::min<std::uint64_t>(
            layerChunkWords, group.totalWords() - first);
        run.nextWord += count;
        --run.credits;
        runGather(node, g, first, count);
        return;
    }
}

void
Ctx::runGather(NodeId node, std::size_t group_idx, std::uint64_t first,
               std::uint64_t count)
{
    std::size_t n = active.slot(node);
    const FlowGroup &group = groups[group_idx];
    GroupRun &run = runs[group_idx];
    procBusy[n] = true;

    sim::Node &sender = machine.node(node);
    sim::Processor &proc = sender.processor();
    Cycles now = machine.events().now();
    Cycles elapsed = 0;

    if (!run.senderOverheadPaid) {
        elapsed += opts.senderMessageOverhead;
        run.senderOverheadPaid = true;
    }

    // Gather copy xC1 into the packing buffer, flow segment by flow
    // segment.
    Addr send_slot = slotAddr(run.sendBuf, first);
    sim::PatternWalk buf_walk = sim::contiguousWalk(send_slot);
    forEachSegment(group, first, count,
                   [&](std::size_t flow_idx, std::uint64_t offset,
                       std::uint64_t n_words, std::uint64_t at) {
                       elapsed += proc.copy2(
                           op.flows[flow_idx].srcWalk, offset,
                           buf_walk, at, n_words, now + elapsed);
                   });

    // PVM: one more copy into the system buffer.
    Addr feed_addr = send_slot;
    if (opts.systemBufferCopies) {
        Addr sys_slot = slotAddr(run.sysSendBuf, first);
        sim::PatternWalk sys_walk = sim::contiguousWalk(sys_slot);
        elapsed += proc.copy2(buf_walk, 0, sys_walk, 0, count,
                              now + elapsed);
        feed_addr = sys_slot;
    }

    Packet pkt;
    pkt.src = group.src;
    pkt.dst = group.dst;
    pkt.flow = static_cast<std::uint32_t>(group_idx);
    pkt.seq = static_cast<std::uint32_t>(first / layerChunkWords);
    pkt.framing = Framing::DataOnly;
    Addr recv_ring =
        opts.systemBufferCopies ? run.sysRecvBuf : run.recvBuf;
    pkt.destBase = slotAddr(recv_ring, first);

    if (sender.fetchEngine().enabled()) {
        // DMA feed (1F0): runs in parallel with further processor
        // work; the processor is released as soon as the gather is
        // done.
        pkt.words.resize(count);
        for (std::uint64_t i = 0; i < count; ++i)
            pkt.words[i] = sender.ram().readWord(feed_addr + i * 8);
        Cycles fetch_start = std::max(now + elapsed, fetchFreeAt[n]);
        Cycles fetch_elapsed =
            sender.fetchEngine().fetch(feed_addr, count * 8);
        fetchFreeAt[n] = fetch_start + fetch_elapsed;
        if (tracer) {
            tracer->span("stage", "pack",
                         traceTrack(node, TraceTrack::Cpu), now,
                         elapsed, "words", count);
            tracer->span("resource", "fetch-dma",
                         traceTrack(node, TraceTrack::Fetch),
                         fetch_start, fetch_elapsed, "bytes",
                         count * 8);
        }
        machine.events().schedule(
            fetchFreeAt[n], [this, pkt = std::move(pkt)]() mutable {
                machine.network().send(std::move(pkt));
            });
        machine.events().scheduleAfter(elapsed, [this, node]() {
            procBusy[active.slot(node)] = false;
            tryProc(node);
        });
        return;
    }

    // Processor feed (1S0) follows the gather sequentially.
    sim::PatternWalk feed_walk = sim::contiguousWalk(feed_addr);
    elapsed += proc.gatherToPort(feed_walk, 0, count, now + elapsed,
                                 pkt.words);
    if (tracer)
        tracer->span("stage", "pack+feed",
                     traceTrack(node, TraceTrack::Cpu), now, elapsed,
                     "words", count);
    machine.events().scheduleAfter(
        elapsed, [this, node, pkt = std::move(pkt)]() mutable {
            machine.network().send(std::move(pkt));
            procBusy[active.slot(node)] = false;
            tryProc(node);
        });
}

void
Ctx::runUnpack(NodeId node, const UnpackTask &task)
{
    std::size_t n = active.slot(node);
    const FlowGroup &group = groups[task.group];
    GroupRun &run = runs[task.group];
    procBusy[n] = true;

    sim::Processor &proc = machine.node(node).processor();
    Cycles now = machine.events().now();
    Cycles elapsed = 0;

    if (!run.receiverOverheadPaid) {
        elapsed += opts.receiverMessageOverhead;
        run.receiverOverheadPaid = true;
    }

    Addr recv_slot = slotAddr(run.recvBuf, task.first);
    if (opts.systemBufferCopies) {
        // PVM: system buffer -> user receive buffer first.
        Addr sys_slot = slotAddr(run.sysRecvBuf, task.first);
        sim::PatternWalk sys_walk = sim::contiguousWalk(sys_slot);
        sim::PatternWalk user_walk = sim::contiguousWalk(recv_slot);
        elapsed += proc.copy2(sys_walk, 0, user_walk, 0, task.count,
                              now + elapsed);
    }

    // Scatter copy 1Cy to the final destinations.
    sim::PatternWalk recv_walk = sim::contiguousWalk(recv_slot);
    forEachSegment(group, task.first, task.count,
                   [&](std::size_t flow_idx, std::uint64_t offset,
                       std::uint64_t n_words, std::uint64_t at) {
                       elapsed += proc.copy2(
                           recv_walk, at, op.flows[flow_idx].dstWalk,
                           offset, n_words, now + elapsed);
                   });

    if (tracer)
        tracer->span("stage", "unpack",
                     traceTrack(node, TraceTrack::Cpu), now, elapsed,
                     "words", task.count);
    std::size_t group_idx = task.group;
    // Completion used to be one event doing receiver work (free the
    // processor, continue unpacking) and sender work (the credit
    // return); split so each side runs in its own partition. The
    // receiver event keeps the original leading order; the credit
    // event carries the trailing ++credits / tryProc(src) pair,
    // which touches no receiver state, so the serial timeline is
    // unchanged by the split.
    machine.events().scheduleAfter(elapsed, [this, node]() {
        std::size_t idx = active.slot(node);
        procBusy[idx] = false;
        lastDoneByNode[idx] =
            std::max(lastDoneByNode[idx], machine.events().now());
        tryProc(node);
    });
    {
        sim::EventQueue::PartitionScope scope(
            machine.events(), groups[group_idx].src);
        machine.events().scheduleAfter(elapsed, [this, group_idx]() {
            ++runs[group_idx].credits;
            tryProc(groups[group_idx].src);
        });
    }
}

void
Ctx::deliver(Packet &&pkt, Cycles time)
{
    NodeId node = pkt.dst;
    sim::DepositEngine &engine = machine.node(node).depositEngine();
    if (!engine.admit(pkt))
        util::fatal("PackingLayer: deposit engine rejected a "
                    "contiguous block");
    std::size_t group_idx = pkt.flow;
    std::uint64_t first =
        static_cast<std::uint64_t>(pkt.seq) * layerChunkWords;
    std::uint64_t count = pkt.words.size();
    Cycles dep_start = std::max(time, engine.busyUntil());
    Cycles done = engine.deposit(pkt, time);
    if (tracer)
        tracer->span("resource", "deposit",
                     traceTrack(node, TraceTrack::Deposit), dep_start,
                     done - dep_start, "words", count);
    machine.events().schedule(
        done, [this, node, group_idx, first, count]() {
            unpackQueue[active.slot(node)].push_back(
                {group_idx, first, count});
            tryProc(node);
        });
}

} // namespace

RunResult
PackingLayer::run(sim::Machine &machine, const CommOp &op)
{
    Cycles op_start = machine.events().now();
    Ctx ctx(machine, op, opts);
    machine.network().setDeliver(
        [&ctx](Packet &&pkt, Cycles time) {
            ctx.deliver(std::move(pkt), time);
        });
    // Kick off the active endpoints only (ascending, like the old
    // all-nodes loop): tryProc() is a no-op for a node with nothing
    // queued, so the event schedule is unchanged.
    for (NodeId node : ctx.active.nodeList()) {
        // The kick-off runs outside any event; tag each node's
        // initial sends with its own partition.
        sim::EventQueue::PartitionScope scope(machine.events(), node);
        ctx.tryProc(node);
    }
    machine.events().run();

    Cycles makespan = 0;
    for (Cycles done : ctx.lastDoneByNode)
        makespan = std::max(makespan, done);
    Cycles extra = 0;
    for (NodeId node : ctx.active.nodeList())
        extra = std::max(extra,
                         machine.node(node).memory().fence(makespan));
    makespan += extra + opts.stepSyncCycles;

    if (auto *t = machine.tracer())
        t->span("op",
                opts.systemBufferCopies ? "pvm" : "packing",
                machine.opTrack(), op_start,
                makespan > op_start ? makespan - op_start : 0,
                "bytes", op.totalBytes());

    RunResult result;
    result.makespan = makespan;
    result.payloadBytes = op.totalBytes();
    result.maxBytesPerSender = op.maxBytesPerSender();
    return result;
}

} // namespace ct::rt
