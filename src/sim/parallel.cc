#include "sim/parallel.h"

#include <algorithm>
#include <limits>

#include "util/logging.h"

namespace ct::sim {

ParallelEngine::ParallelEngine(EventQueue &queue, ParallelOptions options)
    : q(queue), opts(options),
      farm(sweep::FarmOptions{options.threads > 1 ? options.threads : 0,
                              1})
{
    if (opts.lookahead < 1)
        opts.lookahead = 1;
    if (opts.minPartitions < 2)
        opts.minPartitions = 2;
    int nctx = std::max(opts.threads, 1);
    for (int i = 0; i < nctx; ++i) {
        auto ctx = std::make_unique<EventQueue::WindowCtx>();
        ctx->queue = &q;
        ctx->reserve = &reserve;
        ctx->reserveNext = &reserveNext;
        contexts.push_back(std::move(ctx));
    }
}

// The reserve may still hold nodes drained from the queue's free
// list, but the queue may already be gone (sim::Machine destroys it
// first so adopted slab nodes outlive the heap) -- so the destructor
// must not hand anything back; the storage belongs to whichever slab
// allocated it and dies with that slab.
ParallelEngine::~ParallelEngine() = default;

void
ParallelEngine::setLookahead(Cycles hint, Cycles ceiling)
{
    Cycles la = std::min(hint, ceiling);
    opts.lookahead = la < 1 ? 1 : la;
}

void
ParallelEngine::checkCommitTime(Cycles when, std::int32_t part) const
{
    Cycles floor = 0;
    if (part < 0)
        floor = maxExec;
    else if (static_cast<std::size_t>(part) < lastExec.size())
        floor = lastExec[static_cast<std::size_t>(part)];
    if (when < floor)
        util::fatal(
            "ParallelEngine: lookahead contract violated: an event "
            "for partition ", part, " was committed at time ", when,
            ", behind that partition's already-committed time ",
            floor, " (window lookahead ", opts.lookahead,
            " cycles); a layer is declaring a larger "
            "parallelLookahead() than its true minimum "
            "cross-partition delay");
}

void
ParallelEngine::prepareReserve()
{
    // Nodes claimed by workers last window were adopted into the
    // heap (or recycled); drop them from the reserve, then refill it
    // from the queue's free list so steady-state windows allocate
    // nothing new.
    std::size_t claimed = std::min(
        reserveNext.load(std::memory_order_relaxed), reserve.size());
    if (claimed > 0)
        reserve.erase(reserve.begin(),
                      reserve.begin() +
                          static_cast<std::ptrdiff_t>(claimed));
    q.drainFreeList(reserve);
    reserveNext.store(0, std::memory_order_relaxed);
}

std::uint64_t
ParallelEngine::runAll()
{
    std::uint64_t executed = 0;
    while (q.root)
        executed += runWindow();
    // A drained heap forces the commit loop to flush everything.
    if (!rob.empty())
        util::panic("ParallelEngine: reorder buffer holds ",
                    rob.size(), " seed(s) after the heap drained");
    return executed;
}

std::uint64_t
ParallelEngine::runWindow()
{
    constexpr Cycles maxCycles = std::numeric_limits<Cycles>::max();
    ++st.windows;
    Cycles windowFloor = q.root->when;
    // Inclusive horizon; saturate instead of overflowing near the
    // end of representable time.
    Cycles limit = windowFloor > maxCycles - opts.lookahead
                       ? maxCycles
                       : windowFloor + opts.lookahead - 1;

    // COLLECT: pop the window's events in global (time, seq) order,
    // keeping per partition only the events at that partition's
    // minimum timestamp; everything else goes straight back.
    ++epoch;
    seeds.clear();
    rejects.clear();
    windowParts.clear();
    bool untagged = false;
    while (q.root && q.root->when <= limit) {
        EventQueue::EventNode *node = q.popMin();
        std::int32_t part = node->part;
        if (part < 0) {
            untagged = true;
            seeds.push_back(Seed{node, -1, 0, 0, {}});
            continue;
        }
        auto idx = static_cast<std::size_t>(part);
        if (idx >= partTime.size()) {
            partTime.resize(idx + 1, 0);
            partEpoch.resize(idx + 1, 0);
            partTask.resize(idx + 1, -1);
        }
        if (idx < partHeld.size() && partHeld[idx]) {
            // The partition still has executed-but-uncommitted
            // events in the reorder buffer, which may spawn
            // same-partition work at earlier times than this node;
            // it may not run further until those commit.
            rejects.push_back(node);
            continue;
        }
        if (partEpoch[idx] != epoch) {
            partEpoch[idx] = epoch;
            partTime[idx] = node->when;
            windowParts.push_back(part);
            seeds.push_back(Seed{node, -1, 0, 0, {}});
        } else if (node->when == partTime[idx]) {
            seeds.push_back(Seed{node, -1, 0, 0, {}});
        } else {
            rejects.push_back(node);
        }
    }

    // With the reorder buffer non-empty some partitions have already
    // executed past this window's events, so the serial in-place
    // fallback (which commits as it goes) would interleave out of
    // order; such windows must take the buffered path even when a
    // dispatch would not otherwise pay off.
    bool parallel =
        active() && !untagged &&
        (static_cast<int>(windowParts.size()) >= opts.minPartitions ||
         !rob.empty());
    if (untagged && !rob.empty())
        util::fatal(
            "ParallelEngine: an untagged event (no partition) "
            "reached a window while ", rob.size(),
            " executed event(s) await commit; a parallel-safe layer "
            "must partition-tag every event it schedules mid-run");
    if (!parallel) {
        // Single-partition or untagged window: run it in place, on
        // the serial path, including anything it cascades into the
        // window. Byte-identical by construction.
        for (Seed &s : seeds)
            q.push(s.node);
        for (EventQueue::EventNode *node : rejects)
            q.push(node);
        ++st.serialWindows;
        std::uint64_t n = q.runSerialBatch(limit);
        st.serialEvents += n;
        return n;
    }

    // The kept events will execute this window: record each
    // partition's executed time (commit floors for the lookahead
    // backstop; monotonic since a partition's pending times only
    // grow).
    for (std::int32_t part : windowParts) {
        auto idx = static_cast<std::size_t>(part);
        if (idx >= lastExec.size())
            lastExec.resize(idx + 1, 0);
        lastExec[idx] = partTime[idx];
    }

    // Restore the kept events' pending counts: each is decremented
    // again at its own commit slot, so pending/peak accounting is
    // indistinguishable from the serial engine's.
    for (EventQueue::EventNode *node : rejects)
        q.push(node);
    q.pendingCount += seeds.size();

    windowMax = seeds.back().node->when;
    if (windowMax - windowFloor > st.maxWindowSpan)
        st.maxWindowSpan = windowMax - windowFloor;
    if (windowMax > maxExec)
        maxExec = windowMax;

    // EXECUTE: group the kept events by partition -- one dispatch
    // task per partition keeps a partition's events on one worker,
    // in (time, seq) order.
    taskCount = 0;
    for (std::int32_t part : windowParts)
        partTask[static_cast<std::size_t>(part)] = -1;
    for (auto &task : tasks)
        task.clear();
    for (std::uint32_t i = 0;
         i < static_cast<std::uint32_t>(seeds.size()); ++i) {
        auto idx = static_cast<std::size_t>(seeds[i].node->part);
        if (partTask[idx] < 0) {
            partTask[idx] = static_cast<std::int32_t>(taskCount);
            if (tasks.size() <= taskCount)
                tasks.emplace_back();
            ++taskCount;
        }
        tasks[static_cast<std::size_t>(partTask[idx])].push_back(i);
    }

    prepareReserve();
    for (auto &ctx : contexts)
        ctx->effects.clear();

    q.windowOpen = true;
    farm.runBatch(taskCount, [this](std::size_t task, int worker) {
        EventQueue::WindowCtx *win =
            contexts[static_cast<std::size_t>(worker)].get();
        EventQueue::tlWindow = win;
        for (std::uint32_t idx : tasks[task]) {
            Seed &s = seeds[idx];
            EventQueue::EventNode *node = s.node;
            s.worker = worker;
            s.effBegin =
                static_cast<std::uint32_t>(win->effects.size());
            if (!node->cancelled) {
                win->time = node->when;
                win->scopePart = node->part;
                node->invoke(*node);
            }
            s.effEnd = static_cast<std::uint32_t>(win->effects.size());
        }
        EventQueue::tlWindow = nullptr;
    });
    q.windowOpen = false;

    ++st.parallelWindows;
    return commitWindow();
}

bool
ParallelEngine::seedPrecedesHeap(const Seed &seed) const
{
    if (!q.root)
        return true;
    if (seed.node->when != q.root->when)
        return seed.node->when < q.root->when;
    return seed.node->seq < q.root->seq;
}

std::uint64_t
ParallelEngine::commitWindow()
{
    // Merge this window's executed seeds into the reorder buffer.
    // Both sequences are (time, seq)-sorted; carried-over seeds can
    // interleave with this window's (the window executed exactly the
    // events that were blocking them).
    auto seed_before = [](const Seed &a, const Seed &b) {
        if (a.node->when != b.node->when)
            return a.node->when < b.node->when;
        return a.node->seq < b.node->seq;
    };
    if (rob.empty()) {
        rob.swap(seeds);
    } else {
        robMerge.clear();
        robMerge.reserve(rob.size() + seeds.size());
        std::merge(std::make_move_iterator(rob.begin()),
                   std::make_move_iterator(rob.end()),
                   std::make_move_iterator(seeds.begin()),
                   std::make_move_iterator(seeds.end()),
                   std::back_inserter(robMerge), seed_before);
        rob.swap(robMerge);
    }
    seeds.clear();

    // Commit every buffered event that precedes all still-unexecuted
    // heap events: each commit may spawn new heap events, so the
    // front is re-checked every slot. Whatever remains waits for the
    // next window to execute the events blocking it.
    std::uint64_t before = q.executedTotal;
    q.replayEngine = this;
    std::size_t head = 0;
    while (head < rob.size() && seedPrecedesHeap(rob[head])) {
        commitSeed(rob[head]);
        ++head;
    }
    q.replayEngine = nullptr;
    std::uint64_t executed = q.executedTotal - before;
    rob.erase(rob.begin(),
              rob.begin() + static_cast<std::ptrdiff_t>(head));

    // Seeds staying behind must not reference the per-worker effect
    // logs (the next window clears them); move their effect spans
    // into per-seed storage. Mark their partitions held so collect
    // keeps them off workers until these seeds commit.
    for (std::int32_t part : heldParts)
        partHeld[static_cast<std::size_t>(part)] = 0;
    heldParts.clear();
    for (Seed &s : rob) {
        if (s.effEnd > s.effBegin) {
            auto &log =
                contexts[static_cast<std::size_t>(s.worker)]->effects;
            s.held.assign(
                log.begin() + static_cast<std::ptrdiff_t>(s.effBegin),
                log.begin() + static_cast<std::ptrdiff_t>(s.effEnd));
            s.effBegin = s.effEnd = 0;
        }
        auto idx = static_cast<std::size_t>(s.node->part);
        if (idx >= partHeld.size())
            partHeld.resize(idx + 1, 0);
        if (!partHeld[idx]) {
            partHeld[idx] = 1;
            heldParts.push_back(s.node->part);
        }
    }
    return executed;
}

void
ParallelEngine::commitSeed(Seed &s)
{
    EventQueue::EventNode *node = s.node;
    --q.pendingCount;
    if (node->cancelled) {
        // Tombstone: discarded at its slot, clock untouched and
        // executed counts unchanged -- exactly the serial engine's
        // treatment, including the release() seq re-stamp.
        q.release(node);
        return;
    }
    q.currentTime = node->when;
    std::int32_t owner = node->part;
    std::int32_t prevScope = q.activePartition;
    const EventQueue::Effect *effects = nullptr;
    std::size_t count = 0;
    if (!s.held.empty()) {
        effects = s.held.data();
        count = s.held.size();
    } else if (s.effEnd > s.effBegin) {
        auto &log =
            contexts[static_cast<std::size_t>(s.worker)]->effects;
        effects = log.data() + s.effBegin;
        count = s.effEnd - s.effBegin;
    }
    for (std::size_t i = 0; i < count; ++i) {
        EventQueue::EventNode *en = effects[i].node;
        if (!effects[i].defer) {
            // Spawn: adopt the worker-built node into the heap,
            // stamping seq exactly where the serial engine's
            // schedule() call would have.
            if (en->part != owner) {
                checkCommitTime(en->when, en->part);
                ++st.crossSpawns;
            }
            en->seq = q.nextSeq++;
            q.push(en);
        } else {
            // Deferred call: runs serially at the event's own
            // (time, seq) slot, so order-sensitive shared state
            // (link reservations, fault rolls) mutates in exact
            // serial order. Its scratch node never existed in a
            // serial run, so recycle it without a seq stamp.
            q.activePartition = en->part;
            en->invoke(*en);
            if (en->destroy)
                en->destroy(*en);
            q.recycleRaw(en);
            q.activePartition = prevScope;
            ++st.deferredCalls;
        }
    }
    q.release(node);
    ++q.executedTotal;
    ++st.parallelEvents;
}

} // namespace ct::sim
