/**
 * @file
 * Reference-model fuzz tests: the optimized tag store, the banked
 * DRAM, the write queue, the load pipeline and the processor's copy,
 * gather, scatter and address kernels are checked against
 * trivially-correct reference implementations (divisions, maps,
 * std::deque queues and per-element address arithmetic) on random
 * streams, result by result.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <list>
#include <map>
#include <string>
#include <vector>

#include "sim/cache.h"
#include "sim/dram.h"
#include "sim/machine.h"
#include "sim/prefetch.h"
#include "sim/write_buffer.h"
#include "util/rng.h"

namespace {

using namespace ct::sim;

/** Obviously-correct LRU set-associative cache. */
class ReferenceCache
{
  public:
    ReferenceCache(Bytes size, Bytes line, unsigned assoc)
        : lineBytes(line), sets(size / line / assoc), ways(assoc)
    {
    }

    /** Returns true on hit; inserts on miss. */
    bool
    access(Addr addr)
    {
        Addr tag = addr / lineBytes;
        std::size_t set = static_cast<std::size_t>(tag) % sets;
        auto &lru = contents[set];
        for (auto it = lru.begin(); it != lru.end(); ++it) {
            if (*it == tag) {
                lru.erase(it);
                lru.push_front(tag);
                return true;
            }
        }
        lru.push_front(tag);
        if (lru.size() > ways)
            lru.pop_back();
        return false;
    }

  private:
    Bytes lineBytes;
    std::size_t sets;
    unsigned ways;
    std::map<std::size_t, std::list<Addr>> contents;
};

class CacheFuzz : public testing::TestWithParam<std::uint64_t>
{};

TEST_P(CacheFuzz, LoadsMatchReferenceLru)
{
    ct::util::Rng rng(GetParam());
    unsigned assoc = 1u << rng.nextBelow(4); // 1..8 ways
    CacheConfig cfg{4096, 32, assoc, WritePolicy::WriteThrough,
                    false};
    Cache cache(cfg);
    ReferenceCache ref(4096, 32, assoc);

    // A mix of sequential runs and random jumps over 4x the cache.
    Addr cursor = 0;
    for (int i = 0; i < 4000; ++i) {
        if (rng.nextBelow(8) == 0)
            cursor = rng.nextBelow(16384) & ~7ull;
        else
            cursor = (cursor + 8) % 16384;
        bool hit = cache.load(cursor).hit;
        bool ref_hit = ref.access(cursor);
        ASSERT_EQ(hit, ref_hit)
            << "step " << i << " addr " << cursor << " assoc "
            << assoc;
    }
}

TEST_P(CacheFuzz, WriteThroughStoresTouchMemoryEveryTime)
{
    ct::util::Rng rng(GetParam() + 100);
    CacheConfig cfg{4096, 32, 2, WritePolicy::WriteThrough, false};
    Cache cache(cfg);
    for (int i = 0; i < 1000; ++i) {
        Addr addr = rng.nextBelow(16384) & ~7ull;
        EXPECT_TRUE(cache.store(addr).toMemory);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheFuzz,
                         testing::Range<std::uint64_t>(1, 9));

class DramFuzz : public testing::TestWithParam<std::uint64_t>
{};

TEST_P(DramFuzz, CompletionsAreCausalAndMonotonePerLane)
{
    ct::util::Rng rng(GetParam());
    DramConfig cfg;
    cfg.rowBytes = 512;
    cfg.banks = 4;
    cfg.bankSpanBytes = 1024;
    cfg.rowHitCycles = 3;
    cfg.rowMissCycles = 11;
    cfg.writeHitCycles = 5;
    cfg.writeMissCycles = 9;
    Dram dram(cfg);

    Cycles now = 0;
    Cycles last_complete = 0;
    for (int i = 0; i < 3000; ++i) {
        now += rng.nextBelow(6);
        Addr addr = rng.nextBelow(1 << 20) & ~7ull;
        Bytes bytes = 8u << rng.nextBelow(4);
        bool write = rng.nextBelow(2) == 1;
        auto access = dram.access(addr, bytes, write, now);
        // Causality: service starts no earlier than the request.
        ASSERT_GE(access.start, now);
        ASSERT_GT(access.complete, access.start);
        // The demand lane's data phase is totally ordered.
        ASSERT_GE(access.complete, last_complete);
        last_complete = access.complete;
    }
}

TEST_P(DramFuzz, RowHitsNeverSlowerThanMisses)
{
    ct::util::Rng rng(GetParam() + 50);
    DramConfig cfg;
    cfg.rowHitCycles = 3;
    cfg.rowMissCycles = 11;
    Dram dram(cfg);
    for (int i = 0; i < 500; ++i) {
        // Keep addr and addr+8 within one row.
        Addr row = rng.nextBelow(1 << 9) * cfg.rowBytes;
        Addr addr = row + rng.nextBelow(cfg.rowBytes / 8 - 1) * 8;
        auto first = dram.access(addr, 8, false, 1u << 30);
        auto second =
            dram.access(addr + 8, 8, false, first.complete);
        ASSERT_TRUE(second.rowHit);
        ASSERT_LE(second.complete - second.start,
                  first.complete - first.start);
    }
}

TEST_P(DramFuzz, StatsBalance)
{
    ct::util::Rng rng(GetParam() + 77);
    Dram dram(DramConfig{});
    std::uint64_t reads = 0, writes = 0;
    for (int i = 0; i < 400; ++i) {
        bool write = rng.nextBelow(2) == 1;
        dram.access(rng.nextBelow(1 << 16) & ~7ull, 8, write, 0);
        ++(write ? writes : reads);
    }
    EXPECT_EQ(dram.stats().reads, reads);
    EXPECT_EQ(dram.stats().writes, writes);
    EXPECT_EQ(dram.stats().rowHits + dram.stats().rowMisses,
              reads + writes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DramFuzz,
                         testing::Range<std::uint64_t>(1, 7));

/**
 * Division-based banked DRAM: bank = (addr / span) % banks, row =
 * addr / rowBytes, open rows in a map (absent = closed). Activations
 * occupy the first bank; data beats serialize on the request's lane.
 */
class ReferenceDram
{
  public:
    explicit ReferenceDram(const DramConfig &config) : cfg(config) {}

    DramAccess
    access(Addr addr, Bytes bytes, bool is_write, Cycles now,
           bool background)
    {
        Cycles &lane = background ? backgroundBusy : demandBusy;
        ++(is_write ? stats.writes : stats.reads);
        std::uint64_t bank = bankOf(addr);
        auto open = openRows.find(bank);
        DramAccess result;
        result.rowHit =
            open != openRows.end() && open->second == addr / cfg.rowBytes;
        result.start = std::max(now, bankBusy[bank]);

        Cycles activation = 0;
        Cycles data = 0;
        Addr end = addr + bytes;
        for (Addr at = addr; at < end;) {
            Addr row = at / cfg.rowBytes;
            Addr chunk_end = std::min(end, (row + 1) * cfg.rowBytes);
            auto it = openRows.find(bankOf(at));
            if (it != openRows.end() && it->second == row) {
                ++stats.rowHits;
                activation +=
                    is_write ? cfg.writeHitCycles : cfg.rowHitCycles;
            } else {
                ++stats.rowMisses;
                activation +=
                    is_write ? cfg.writeMissCycles : cfg.rowMissCycles;
                openRows[bankOf(at)] = row;
            }
            Bytes chunk = chunk_end - at;
            data += (chunk + cfg.beatBytes - 1) / cfg.beatBytes *
                    cfg.burstBeatCycles;
            at = chunk_end;
        }
        result.complete =
            std::max(result.start + activation, lane) + data;
        bankBusy[bank] = result.complete;
        lane = result.complete;
        stats.busyCycles += activation + data;
        return result;
    }

    void closeRows() { openRows.clear(); }

    DramStats stats;

  private:
    std::uint64_t
    bankOf(Addr addr) const
    {
        return addr / cfg.bankSpanBytes %
               static_cast<std::uint64_t>(cfg.banks);
    }

    DramConfig cfg;
    std::map<std::uint64_t, Addr> openRows;
    std::map<std::uint64_t, Cycles> bankBusy;
    Cycles demandBusy = 0;
    Cycles backgroundBusy = 0;
};

void
expectSameStats(const DramStats &got, const DramStats &want)
{
    EXPECT_EQ(got.reads, want.reads);
    EXPECT_EQ(got.writes, want.writes);
    EXPECT_EQ(got.rowHits, want.rowHits);
    EXPECT_EQ(got.rowMisses, want.rowMisses);
    EXPECT_EQ(got.busyCycles, want.busyCycles);
}

class DramOracle : public testing::TestWithParam<std::uint64_t>
{};

TEST_P(DramOracle, EveryAccessMatchesDivisionReference)
{
    for (int banks : {1, 3, 4, 8}) {
        ct::util::Rng rng(GetParam() * 131 + banks);
        DramConfig cfg;
        cfg.rowBytes = Bytes{64} << rng.nextBelow(5);      // 64..1024
        cfg.bankSpanBytes = cfg.rowBytes << rng.nextBelow(3);
        cfg.banks = banks;
        cfg.beatBytes = Bytes{4} << rng.nextBelow(3);      // 4..16
        cfg.burstBeatCycles = 1 + rng.nextBelow(2);
        cfg.rowHitCycles = 2 + rng.nextBelow(8);
        cfg.rowMissCycles = cfg.rowHitCycles + rng.nextBelow(16);
        cfg.writeHitCycles = 2 + rng.nextBelow(8);
        cfg.writeMissCycles = cfg.writeHitCycles + rng.nextBelow(16);
        Dram dram(cfg);
        ReferenceDram ref(cfg);

        // Sequential runs with jumps; sizes from one beat to several
        // rows, at word offsets, so requests cross rows and banks.
        Addr cursor = 0;
        Cycles now = 0;
        for (int i = 0; i < 4000; ++i) {
            if (rng.nextBelow(6) == 0)
                cursor = rng.nextBelow(1 << 18) & ~7ull;
            Bytes bytes = rng.nextBelow(4) == 0
                              ? 8 * (1 + rng.nextBelow(cfg.rowBytes / 2))
                              : 8;
            bool write = rng.nextBelow(3) == 0;
            bool background = rng.nextBelow(4) == 0;
            now += rng.nextBelow(12);
            if (rng.nextBelow(500) == 0) {
                dram.closeRows();
                ref.closeRows();
            }
            DramAccess got =
                background ? dram.accessBackground(cursor, bytes, write,
                                                   now)
                           : dram.access(cursor, bytes, write, now);
            DramAccess want =
                ref.access(cursor, bytes, write, now, background);
            ASSERT_EQ(got.start, want.start) << "banks " << banks
                                             << " step " << i;
            ASSERT_EQ(got.complete, want.complete)
                << "banks " << banks << " step " << i;
            ASSERT_EQ(got.rowHit, want.rowHit)
                << "banks " << banks << " step " << i;
            cursor += bytes;
        }
        expectSameStats(dram.stats(), ref.stats);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DramOracle,
                         testing::Range<std::uint64_t>(1, 9));

/** The write queue's contract, written as a plain std::deque FIFO. */
class ReferenceWriteBuffer
{
  public:
    ReferenceWriteBuffer(const WriteBufferConfig &config, Dram &dram)
        : cfg(config), dram(dram)
    {
    }

    Cycles
    store(Addr addr, Bytes bytes, Cycles now)
    {
        ++stats.stores;
        retire(now);
        Addr line = addr / cfg.lineBytes * cfg.lineBytes;
        if (cfg.entries == 0) {
            Cycles cost =
                dram.accessBackground(addr, bytes, true, now).complete -
                now;
            stats.stallCycles += cost;
            return cost;
        }
        if (cfg.coalesce && !queue.empty() && !queue.back().issued &&
            queue.back().line == line) {
            ++stats.coalesced;
            queue.back().bytes += bytes;
            return 0;
        }
        Cycles stall = 0;
        if (queue.size() >= cfg.entries) {
            ++stats.fullStalls;
            issueAll(now);
            if (queue.front().completesAt > now)
                stall = queue.front().completesAt - now;
            stats.stallCycles += stall;
            now += stall;
            queue.pop_front();
            retire(now);
        }
        queue.push_back({line, addr, bytes, false, 0});
        auto unissued = std::count_if(
            queue.begin(), queue.end(),
            [](const Entry &e) { return !e.issued; });
        if (unissued >= std::max(1u, cfg.drainBatch))
            issueAll(now);
        return stall;
    }

    Cycles
    drainTime(Cycles now)
    {
        issueAll(now);
        if (queue.empty() || queue.back().completesAt <= now)
            return 0;
        return queue.back().completesAt - now;
    }

    std::size_t
    occupancy(Cycles now) const
    {
        return std::count_if(queue.begin(), queue.end(),
                             [now](const Entry &e) {
                                 return !e.issued || e.completesAt > now;
                             });
    }

    WriteBufferStats stats;

  private:
    struct Entry
    {
        Addr line;
        Addr addr;
        Bytes bytes;
        bool issued;
        Cycles completesAt;
    };

    void
    retire(Cycles now)
    {
        while (!queue.empty() && queue.front().issued &&
               queue.front().completesAt <= now)
            queue.pop_front();
    }

    void
    issueAll(Cycles now)
    {
        for (Entry &e : queue) {
            if (e.issued)
                continue;
            e.completesAt =
                dram.accessBackground(e.addr, e.bytes, true, now)
                    .complete;
            e.issued = true;
        }
    }

    WriteBufferConfig cfg;
    Dram &dram;
    std::deque<Entry> queue;
};

class WriteBufferOracle : public testing::TestWithParam<std::uint64_t>
{};

TEST_P(WriteBufferOracle, EveryStoreMatchesDequeReference)
{
    DramConfig dcfg;
    dcfg.rowBytes = 256;
    dcfg.banks = 2;
    dcfg.bankSpanBytes = 512;
    dcfg.writeHitCycles = 4;
    dcfg.writeMissCycles = 15;
    for (unsigned entries : {0u, 1u, 6u}) {
        for (unsigned batch : {0u, 1u, 4u}) {
            for (bool coalesce : {true, false}) {
                ct::util::Rng rng(GetParam() * 1009 + entries * 31 +
                                  batch * 7 + coalesce);
                WriteBufferConfig cfg{entries, coalesce, 32, batch};
                Dram dram(dcfg);
                Dram ref_dram(dcfg);
                WriteBuffer wb(cfg, dram);
                ReferenceWriteBuffer ref(cfg, ref_dram);
                Addr cursor = 0;
                Cycles now = 0;
                for (int i = 0; i < 3000; ++i) {
                    if (rng.nextBelow(5) == 0)
                        cursor = rng.nextBelow(1 << 16) & ~7ull;
                    now += rng.nextBelow(10) == 0 ? rng.nextBelow(200)
                                                  : rng.nextBelow(4);
                    Cycles got = wb.store(cursor, 8, now);
                    ASSERT_EQ(got, ref.store(cursor, 8, now))
                        << "entries " << entries << " batch " << batch
                        << " step " << i;
                    ASSERT_EQ(wb.occupancy(now), ref.occupancy(now))
                        << "entries " << entries << " batch " << batch
                        << " step " << i;
                    if (rng.nextBelow(50) == 0) {
                        ASSERT_EQ(wb.drainTime(now), ref.drainTime(now))
                            << "entries " << entries << " batch "
                            << batch << " step " << i;
                    }
                    now += got;
                    cursor += 8;
                }
                EXPECT_EQ(wb.drainTime(now), ref.drainTime(now));
                EXPECT_EQ(wb.occupancy(now), ref.occupancy(now));
                EXPECT_EQ(wb.stats().stores, ref.stats.stores);
                EXPECT_EQ(wb.stats().coalesced, ref.stats.coalesced);
                EXPECT_EQ(wb.stats().fullStalls, ref.stats.fullStalls);
                EXPECT_EQ(wb.stats().stallCycles, ref.stats.stallCycles);
                expectSameStats(dram.stats(), ref_dram.stats());
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WriteBufferOracle,
                         testing::Range<std::uint64_t>(1, 7));

/** The pipelined-load contract as a std::deque of completion times. */
class ReferenceLoadPipeline
{
  public:
    explicit ReferenceLoadPipeline(const LoadPipelineConfig &config)
        : cfg(config)
    {
    }

    Cycles
    load(Cycles completes_at, Cycles now)
    {
        completes_at += cfg.pipeLatency;
        if (!cfg.enabled)
            return completes_at > now ? completes_at - now : 0;
        while (!outstanding.empty() && outstanding.front() <= now)
            outstanding.pop_front();
        Cycles stall = 0;
        if (outstanding.size() >= cfg.depth) {
            stall = outstanding.front() - now;
            outstanding.pop_front();
        }
        outstanding.push_back(completes_at);
        return stall;
    }

    Cycles
    drainTime(Cycles now) const
    {
        if (outstanding.empty() || outstanding.back() <= now)
            return 0;
        return outstanding.back() - now;
    }

    void reset() { outstanding.clear(); }

  private:
    LoadPipelineConfig cfg;
    std::deque<Cycles> outstanding;
};

class LoadPipelineOracle : public testing::TestWithParam<std::uint64_t>
{};

TEST_P(LoadPipelineOracle, EveryLoadMatchesDequeReference)
{
    for (bool enabled : {true, false}) {
        for (unsigned depth : {1u, 3u, 5u}) {
            ct::util::Rng rng(GetParam() * 577 + depth * 2 + enabled);
            LoadPipelineConfig cfg{enabled, depth,
                                   static_cast<Cycles>(rng.nextBelow(4))};
            LoadPipeline pipe(cfg);
            ReferenceLoadPipeline ref(cfg);
            Cycles now = 0;
            Cycles mem_free = 0;
            for (int i = 0; i < 4000; ++i) {
                now += rng.nextBelow(6);
                // Memory serializes the loads: each completes a few
                // cycles after the later of issue and the previous.
                mem_free = std::max(mem_free, now) + 1 + rng.nextBelow(12);
                Cycles completes = rng.nextBelow(20) == 0
                                       ? now - std::min<Cycles>(now, 3)
                                       : mem_free;
                if (rng.nextBelow(300) == 0) {
                    pipe.reset();
                    ref.reset();
                }
                Cycles got = pipe.load(completes, now);
                ASSERT_EQ(got, ref.load(completes, now))
                    << "depth " << depth << " step " << i;
                ASSERT_EQ(pipe.drainTime(now), ref.drainTime(now))
                    << "depth " << depth << " step " << i;
                now += got;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LoadPipelineOracle,
                         testing::Range<std::uint64_t>(1, 7));

/**
 * The processor kernels as plain per-element loops: every address
 * comes from PatternWalk::elementAddr (a division per strided
 * element, an index-array read per indexed one), every cycle from
 * MemorySystem::load/store and the ProcessorConfig costs, every word
 * from NodeRam. Run on a second node built from the same config, it
 * must match Processor result by result.
 */
class ReferenceKernels
{
  public:
    ReferenceKernels(const ProcessorConfig &config, MemorySystem &memory,
                     NodeRam &ram, BusMaster master)
        : cfg(config), mem(memory), ram(ram), master(master)
    {
    }

    Cycles
    copy2(const PatternWalk &src, std::uint64_t src_first,
          const PatternWalk &dst, std::uint64_t dst_first,
          std::uint64_t count, Cycles start)
    {
        Cycles now = start;
        for (std::uint64_t i = 0; i < count; ++i) {
            std::uint64_t value = load(src, src_first + i, now);
            if (dst.needsIndexLoad())
                now += mem.load(dst.indexAddr(dst_first + i), now, master);
            Addr daddr = dst.elementAddr(ram, dst_first + i);
            now += mem.store(daddr, now, master);
            ram.writeWord(daddr, value);
            now += cfg.loopCyclesPerElem;
        }
        return now - start;
    }

    Cycles
    gatherToPort(const PatternWalk &src, std::uint64_t first,
                 std::uint64_t count, Cycles start,
                 std::vector<std::uint64_t> &words)
    {
        Cycles now = start;
        for (std::uint64_t i = 0; i < count; ++i) {
            words.push_back(load(src, first + i, now));
            now += cfg.portStoreCycles + cfg.loopCyclesPerElem;
        }
        return now - start;
    }

    Cycles
    computeRemoteAddrs(const PatternWalk &dst, std::uint64_t first,
                       std::uint64_t count, Cycles start,
                       std::vector<Addr> &addrs)
    {
        Cycles now = start;
        for (std::uint64_t i = 0; i < count; ++i) {
            if (dst.needsIndexLoad())
                now += mem.load(dst.indexAddr(first + i), now, master);
            addrs.push_back(dst.elementAddr(ram, first + i));
        }
        return now - start;
    }

    Cycles
    scatterFromPort(const PatternWalk &dst, std::uint64_t first,
                    std::uint64_t count, Cycles start,
                    const std::uint64_t *words)
    {
        Cycles now = start;
        for (std::uint64_t i = 0; i < count; ++i) {
            now += cfg.portLoadCycles;
            if (dst.needsIndexLoad())
                now += mem.load(dst.indexAddr(first + i), now, master);
            Addr daddr = dst.elementAddr(ram, first + i);
            now += mem.store(daddr, now, master);
            ram.writeWord(daddr, words[i]);
            now += cfg.loopCyclesPerElem;
        }
        return now - start;
    }

  private:
    /** Element @p i of @p walk: its index load, its data load. */
    std::uint64_t
    load(const PatternWalk &walk, std::uint64_t i, Cycles &now)
    {
        if (walk.needsIndexLoad())
            now += mem.load(walk.indexAddr(i), now, master);
        Addr addr = walk.elementAddr(ram, i);
        now += mem.load(addr, now, master);
        return ram.readWord(addr);
    }

    ProcessorConfig cfg;
    MemorySystem &mem;
    NodeRam &ram;
    BusMaster master;
};

void
expectSameMemoryStats(const MemorySystem &a, const MemorySystem &b,
                      const std::string &where)
{
    const CacheStats &ca = a.cache().stats(), &cb = b.cache().stats();
    EXPECT_EQ(ca.loadHits, cb.loadHits) << where;
    EXPECT_EQ(ca.loadMisses, cb.loadMisses) << where;
    EXPECT_EQ(ca.storeHits, cb.storeHits) << where;
    EXPECT_EQ(ca.storeMisses, cb.storeMisses) << where;
    EXPECT_EQ(ca.writeBacks, cb.writeBacks) << where;
    EXPECT_EQ(ca.invalidations, cb.invalidations) << where;
    const DramStats &da = a.dram().stats(), &db = b.dram().stats();
    EXPECT_EQ(da.reads, db.reads) << where;
    EXPECT_EQ(da.writes, db.writes) << where;
    EXPECT_EQ(da.rowHits, db.rowHits) << where;
    EXPECT_EQ(da.rowMisses, db.rowMisses) << where;
    EXPECT_EQ(da.busyCycles, db.busyCycles) << where;
    const WriteBufferStats &wa = a.writeBuffer().stats(),
                           &wb = b.writeBuffer().stats();
    EXPECT_EQ(wa.stores, wb.stores) << where;
    EXPECT_EQ(wa.coalesced, wb.coalesced) << where;
    EXPECT_EQ(wa.fullStalls, wb.fullStalls) << where;
    EXPECT_EQ(wa.stallCycles, wb.stallCycles) << where;
    const ReadAheadStats &ra = a.readAhead().stats(),
                         &rb = b.readAhead().stats();
    EXPECT_EQ(ra.streamHits, rb.streamHits) << where;
    EXPECT_EQ(ra.streamMisses, rb.streamMisses) << where;
    EXPECT_EQ(ra.prefetchesIssued, rb.prefetchesIssued) << where;
    const BusStats &ba = a.bus().stats(), &bb = b.bus().stats();
    EXPECT_EQ(ba.transactions, bb.transactions) << where;
    EXPECT_EQ(ba.ownerSwitches, bb.ownerSwitches) << where;
    EXPECT_EQ(ba.busyCycles, bb.busyCycles) << where;
    EXPECT_EQ(ba.waitCycles, bb.waitCycles) << where;
}

/** Elements a kernel call may touch: first + count stays below. */
constexpr std::uint64_t kKernelElems = 600;

/**
 * The walks of one oracle case, allocated identically on each node:
 * contiguous; strided with block 1, with block > 1, and with the
 * tightest legal stride (block + 1; AccessPattern::strided refuses a
 * stride below the block); indexed over a random index array with
 * repeats. Each walk has its own region, filled with random words.
 */
std::vector<PatternWalk>
oracleWalks(NodeRam &ram, std::uint64_t seed)
{
    ct::util::Rng rng(seed);
    auto region = [&](std::uint64_t words) {
        Addr base = ram.alloc(words * 8);
        for (std::uint64_t i = 0; i < words; ++i)
            ram.writeWord(base + i * 8, rng.next());
        return base;
    };
    auto strided = [&](std::uint32_t stride, std::uint32_t block) {
        std::uint64_t blocks = (kKernelElems + block - 1) / block;
        return stridedWalk(region(blocks * stride), stride, block);
    };
    std::vector<PatternWalk> walks;
    walks.push_back(contiguousWalk(region(kKernelElems)));
    walks.push_back(
        strided(2 + static_cast<std::uint32_t>(rng.nextBelow(15)), 1));
    std::uint32_t block = 2 + static_cast<std::uint32_t>(rng.nextBelow(5));
    walks.push_back(strided(
        block + 1 + static_cast<std::uint32_t>(rng.nextBelow(12)), block));
    walks.push_back(strided(block + 1, block));
    Addr data = region(kKernelElems);
    Addr index = ram.alloc(kKernelElems * 8);
    for (std::uint64_t i = 0; i < kKernelElems; ++i)
        ram.writeWord(index + i * 8, rng.nextBelow(kKernelElems));
    walks.push_back(indexedWalk(data, index));
    return walks;
}

struct KernelOracleCase
{
    const char *machine;
    std::uint64_t seed;
};

void
PrintTo(const KernelOracleCase &c, std::ostream *os)
{
    *os << c.machine << " seed " << c.seed;
}

class KernelOracle : public testing::TestWithParam<KernelOracleCase>
{};

TEST_P(KernelOracle, EveryKernelMatchesPerElementReference)
{
    const KernelOracleCase &c = GetParam();
    NodeConfig config = std::string(c.machine) == "t3d"
                            ? t3dNodeConfig()
                            : paragonNodeConfig();
    Node node(config);
    Node mirror(config);
    std::vector<PatternWalk> walks = oracleWalks(node.ram(), c.seed);
    ASSERT_EQ(oracleWalks(mirror.ram(), c.seed).size(), walks.size());
    Addr walks_end = node.ram().alloc(8);
    ASSERT_EQ(mirror.ram().alloc(8), walks_end);

    ct::util::Rng rng(c.seed * 7919 + 3);
    Cycles now = 0;
    std::vector<std::uint64_t> words, ref_words;
    std::vector<Addr> addrs, ref_addrs;
    for (int call = 0; call < 400; ++call) {
        const PatternWalk &src = walks[rng.nextBelow(walks.size())];
        const PatternWalk &dst = walks[rng.nextBelow(walks.size())];
        std::uint64_t count =
            rng.nextBelow(8) == 0 ? 0 : rng.nextBelow(257);
        std::uint64_t src_first = rng.nextBelow(kKernelElems - count);
        std::uint64_t dst_first = rng.nextBelow(kKernelElems - count);
        // The co-processor (Paragon) drains the port as its own bus
        // master, with its own instruction costs.
        bool coproc = node.hasCoProcessor() && rng.nextBelow(2) == 0;
        Processor &proc = coproc ? node.coProcessor() : node.processor();
        ReferenceKernels ref(
            coproc ? config.coProcessor : config.processor,
            mirror.memory(), mirror.ram(),
            coproc ? BusMaster::CoProcessor : BusMaster::Processor);
        int kernel = static_cast<int>(rng.nextBelow(5));
        std::string where = std::string(c.machine) + " seed " +
                            std::to_string(c.seed) + " call " +
                            std::to_string(call) + " kernel " +
                            std::to_string(kernel) + " src " +
                            src.pattern.label() + " dst " +
                            dst.pattern.label() + " count " +
                            std::to_string(count);
        Cycles got = 0, want = 0;
        switch (kernel) {
          case 0:
            got = proc.copy(src, dst, src_first, count, now);
            want = ref.copy2(src, src_first, dst, src_first, count, now);
            break;
          case 1:
            got = proc.copy2(src, src_first, dst, dst_first, count, now);
            want = ref.copy2(src, src_first, dst, dst_first, count, now);
            break;
          case 2:
            words.assign(rng.nextBelow(3), 7);
            ref_words = words;
            got = proc.gatherToPort(src, src_first, count, now, words);
            want = ref.gatherToPort(src, src_first, count, now, ref_words);
            ASSERT_EQ(words, ref_words) << where;
            break;
          case 3:
            addrs.assign(rng.nextBelow(3), 8);
            ref_addrs = addrs;
            got = proc.computeRemoteAddrs(dst, dst_first, count, now,
                                          addrs);
            want = ref.computeRemoteAddrs(dst, dst_first, count, now,
                                          ref_addrs);
            ASSERT_EQ(addrs, ref_addrs) << where;
            break;
          default: {
            std::vector<std::uint64_t> payload(count);
            for (auto &w : payload)
                w = rng.next();
            got = proc.scatterFromPort(dst, dst_first, count, now,
                                       payload.data());
            want = ref.scatterFromPort(dst, dst_first, count, now,
                                       payload.data());
            break;
          }
        }
        ASSERT_EQ(got, want) << where;
        now += got + rng.nextBelow(50);
        if (rng.nextBelow(16) == 0) {
            Cycles fence = node.memory().fence(now);
            ASSERT_EQ(fence, mirror.memory().fence(now)) << where;
            now += fence;
        }
    }
    for (Addr a = 0; a < walks_end; a += 8)
        ASSERT_EQ(node.ram().readWord(a), mirror.ram().readWord(a))
            << c.machine << " seed " << c.seed << " word at " << a;
    expectSameMemoryStats(node.memory(), mirror.memory(),
                          std::string(c.machine) + " seed " +
                              std::to_string(c.seed));
}

std::vector<KernelOracleCase>
kernelOracleCases()
{
    std::vector<KernelOracleCase> cases;
    for (const char *machine : {"t3d", "paragon"})
        for (std::uint64_t seed = 1; seed <= 6; ++seed)
            cases.push_back({machine, seed});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Machines, KernelOracle, testing::ValuesIn(kernelOracleCases()),
    [](const testing::TestParamInfo<KernelOracleCase> &info) {
        return std::string(info.param.machine) + "_seed" +
               std::to_string(info.param.seed);
    });

} // namespace
