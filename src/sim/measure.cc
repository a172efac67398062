#include "measure.h"

#include <algorithm>
#include <array>
#include <initializer_list>

#include "sweep/farm.h"
#include "util/logging.h"
#include "util/rng.h"

namespace ct::sim {

namespace {

using core::AccessPattern;

constexpr std::uint64_t chunkWords = 64;

/** Seed of the permutation an indexed walk visits its elements in. */
constexpr std::uint64_t walkSeed = 12345;

/** Address-space bytes a walk of @p words elements spans. */
Bytes
walkSpanBytes(const AccessPattern &p, std::uint64_t words)
{
    switch (p.kind()) {
      case core::PatternKind::Contiguous:
        return words * 8;
      case core::PatternKind::Strided: {
        std::uint64_t blocks = (words + p.block() - 1) / p.block();
        return blocks * p.stride() * 8;
      }
      case core::PatternKind::Indexed:
        return words * 8 * 2; // data + index array
      case core::PatternKind::Fixed:
        break;
    }
    return 0;
}

/**
 * Node config whose RAM is wide enough for the given walk spans.
 * The widening is address-space only: the bump allocator hands out
 * the same addresses whatever the capacity, so DRAM bank and cache
 * mappings -- and therefore timing -- are unchanged; the walks move
 * zero payload, which leaves their pages virtual, so host memory is
 * O(1) in the spans. This is what lets a stride sweep walk a
 * footprint larger than a node's physical RAM (fig4) without either
 * kind of OOM.
 */
NodeConfig
arenaConfig(const NodeConfig &cfg, std::initializer_list<Bytes> spans)
{
    Bytes need = 4096;
    for (Bytes s : spans)
        need += s + 2 * (cfg.ramAllocSkew + 64);
    NodeConfig arena = cfg;
    arena.ramBytes = std::max(arena.ramBytes, need);
    return arena;
}

/**
 * Allocate a walk of @p words elements with pattern @p p. Its payload
 * stays zero: timing depends on the addresses a walk touches, never
 * on the values it moves, so only an indexed walk's index array
 * materializes node-RAM pages. An indexed walk visits its elements in
 * @p order when one is given (@p words entries), else in a
 * permutation drawn from @p rng.
 */
PatternWalk
makeWalk(Node &node, AccessPattern p, std::uint64_t words,
         util::Rng &rng, std::span<const std::uint64_t> order)
{
    NodeRam &ram = node.ram();
    switch (p.kind()) {
      case core::PatternKind::Contiguous: {
        Addr base = ram.alloc(words * 8);
        return contiguousWalk(base);
      }
      case core::PatternKind::Strided: {
        std::uint64_t blocks = (words + p.block() - 1) / p.block();
        Addr base = ram.alloc(blocks * p.stride() * 8);
        return stridedWalk(base, p.stride(), p.block());
      }
      case core::PatternKind::Indexed: {
        Addr base = ram.alloc(words * 8);
        Addr idx = ram.alloc(words * 8);
        std::vector<std::uint64_t> drawn;
        if (order.empty()) {
            drawn = rng.permutation(words);
            order = drawn;
        }
        if (order.size() != words)
            util::fatal("makeWalk: an index order of ", order.size(),
                        " entries for ", words, " words");
        for (std::uint64_t i = 0; i < words; ++i)
            ram.writeWord(idx + i * 8, order[i]);
        return indexedWalk(base, idx);
    }
      case core::PatternKind::Fixed:
        break;
    }
    util::fatal("makeWalk: pattern must touch memory");
}

} // namespace

util::MBps
measureLocalCopy(const MachineConfig &cfg, core::AccessPattern x,
                 core::AccessPattern y, std::uint64_t words,
                 MeasureStats *stats,
                 std::span<const std::uint64_t> index_order)
{
    Node node(arenaConfig(cfg.node, {walkSpanBytes(x, words),
                                     walkSpanBytes(y, words)}));
    util::Rng rng(walkSeed);
    PatternWalk src = makeWalk(node, x, words, rng, index_order);
    PatternWalk dst = makeWalk(node, y, words, rng, index_order);
    Cycles elapsed = 0;
    for (std::uint64_t first = 0; first < words; first += chunkWords) {
        std::uint64_t count = std::min(chunkWords, words - first);
        elapsed += node.processor().copy(src, dst, first, count,
                                         elapsed);
    }
    elapsed += node.processor().fence(elapsed);
    if (stats)
        stats->residentPages = node.ram().residentPages();
    return util::toMBps(words * 8, elapsed, cfg.clockHz);
}

util::MBps
measureLoadSend(const MachineConfig &cfg, core::AccessPattern x,
                std::uint64_t words,
                std::span<const std::uint64_t> index_order)
{
    Node node(arenaConfig(cfg.node, {walkSpanBytes(x, words)}));
    util::Rng rng(walkSeed);
    PatternWalk src = makeWalk(node, x, words, rng, index_order);
    std::vector<std::uint64_t> sink;
    sink.reserve(chunkWords);
    Cycles elapsed = 0;
    for (std::uint64_t first = 0; first < words; first += chunkWords) {
        std::uint64_t count = std::min(chunkWords, words - first);
        elapsed += node.processor().gatherToPort(src, first, count,
                                                 elapsed, sink);
        sink.clear();
    }
    return util::toMBps(words * 8, elapsed, cfg.clockHz);
}

std::optional<util::MBps>
measureFetchSend(const MachineConfig &cfg, std::uint64_t words)
{
    Node node(arenaConfig(cfg.node, {words * 8}));
    if (!node.fetchEngine().enabled())
        return std::nullopt;
    Addr base = node.ram().alloc(words * 8);
    Cycles elapsed = node.fetchEngine().fetch(base, words * 8);
    return util::toMBps(words * 8, elapsed, cfg.clockHz);
}

std::optional<util::MBps>
measureReceiveStore(const MachineConfig &cfg, core::AccessPattern y,
                    std::uint64_t words,
                    std::span<const std::uint64_t> index_order)
{
    Node node(arenaConfig(cfg.node, {walkSpanBytes(y, words)}));
    if (!node.hasCoProcessor())
        return std::nullopt;
    util::Rng rng(walkSeed);
    PatternWalk dst = makeWalk(node, y, words, rng, index_order);
    const std::array<std::uint64_t, chunkWords> payload{};
    Cycles elapsed = 0;
    for (std::uint64_t first = 0; first < words; first += chunkWords) {
        std::uint64_t count = std::min(chunkWords, words - first);
        elapsed += node.coProcessor().scatterFromPort(
            dst, first, count, elapsed, payload.data());
    }
    elapsed += node.coProcessor().fence(elapsed);
    return util::toMBps(words * 8, elapsed, cfg.clockHz);
}

std::optional<util::MBps>
measureReceiveDeposit(const MachineConfig &cfg, core::AccessPattern y,
                      std::uint64_t words,
                      std::span<const std::uint64_t> index_order)
{
    Node node(arenaConfig(cfg.node, {walkSpanBytes(y, words)}));
    DepositEngine &engine = node.depositEngine();
    if (!engine.enabled())
        return std::nullopt;
    util::Rng rng(walkSeed);
    PatternWalk dst = makeWalk(node, y, words, rng, index_order);

    bool contiguous = y.isContiguous();
    Cycles done = 0;
    for (std::uint64_t first = 0; first < words; first += chunkWords) {
        std::uint64_t count = std::min(chunkWords, words - first);
        Packet pkt;
        pkt.src = 0;
        pkt.dst = 0;
        pkt.framing =
            contiguous ? Framing::DataOnly : Framing::AddrDataPair;
        pkt.words.resize(count);
        // The addresses are data-plane only: no simulated index load.
        if (!contiguous) {
            pkt.addrs.resize(count);
            withCursor(dst, first, [&](auto cur) {
                for (std::uint64_t i = 0; i < count; ++i, cur.advance())
                    pkt.addrs[i] = cur.elementAddr(node.ram());
            });
        }
        if (contiguous)
            pkt.destBase = dst.base + first * 8;
        if (!engine.accepts(pkt))
            return std::nullopt;
        done = engine.deposit(pkt, 0);
    }
    return util::toMBps(words * 8, done, cfg.clockHz);
}

util::MBps
measureNetwork(const MachineConfig &cfg, Framing framing,
               int congestion, std::uint64_t words_per_flow)
{
    if (congestion < 1 || congestion > 4)
        util::fatal("measureNetwork: congestion must be 1, 2 or 4");

    // A 16-node ring (or line for a mesh) partition: senders 0, 2,
    // 4, 6 target nodes 8, 10, 12, 14; with k active senders the
    // middle link carries k flows while injection and ejection ports
    // stay distinct.
    MachineConfig ring = cfg;
    ring.topology.dims = {16};
    Machine machine(ring);

    std::uint64_t flows = static_cast<std::uint64_t>(congestion);
    std::uint64_t remaining = flows * ((words_per_flow + chunkWords - 1) /
                                       chunkWords);
    Cycles last_delivery = 0;
    machine.network().setDeliver(
        [&](Packet &&, Cycles time) {
            last_delivery = std::max(last_delivery, time);
            --remaining;
        });

    for (std::uint64_t f = 0; f < flows; ++f) {
        NodeId src = static_cast<NodeId>(2 * f);
        NodeId dst = static_cast<NodeId>(8 + 2 * f);
        for (std::uint64_t first = 0; first < words_per_flow;
             first += chunkWords) {
            std::uint64_t count =
                std::min(chunkWords, words_per_flow - first);
            Packet pkt;
            pkt.src = src;
            pkt.dst = dst;
            pkt.framing = framing;
            pkt.flow = static_cast<std::uint32_t>(f);
            pkt.words.assign(count, 0x4000);
            if (framing == Framing::AddrDataPair)
                pkt.addrs.assign(count, 0);
            else
                pkt.destBase = 0;
            machine.network().send(std::move(pkt));
        }
    }
    machine.events().run();
    if (remaining != 0)
        util::panic("measureNetwork: lost packets");
    return util::toMBps(words_per_flow * 8, last_delivery,
                        cfg.clockHz);
}

namespace {

/**
 * One measurement of the campaign, as a plain value: the basic
 * transfer to time (its op and access patterns) and, for Nd / Nadp,
 * the congestion factor. The framing follows the op: Nd sends
 * data-only packets, Nadp address-data pairs.
 */
struct Measurement
{
    core::BasicTransfer transfer;
    /** Flows sharing the middle link; network ops only. */
    int congestion = 1;
};

/**
 * The campaign in recording order, the same list for every machine:
 * per pattern the local copies (one side varied at a time, like
 * Table 1), xS0, 0Ry and 0Dy; then 1F0; then Nd and Nadp at
 * congestion 1, 2 and 4.
 */
std::vector<Measurement>
measurementCampaign()
{
    using P = AccessPattern;
    const std::uint32_t strides[] = {1, 2, 4, 8, 16, 32, 64};
    std::vector<P> patterns;
    for (std::uint32_t s : strides)
        patterns.push_back(P::strided(s));
    patterns.push_back(P::indexed());

    std::vector<Measurement> campaign;
    for (const P &p : patterns) {
        campaign.push_back({core::localCopy(P::contiguous(), p)});
        if (!p.isContiguous())
            campaign.push_back({core::localCopy(p, P::contiguous())});
        campaign.push_back({core::loadSend(p)});
        campaign.push_back({core::receiveStore(p)});
        campaign.push_back({core::receiveDeposit(p)});
    }
    campaign.push_back({core::fetchSend(P::contiguous())});
    for (int congestion : {1, 2, 4}) {
        campaign.push_back({core::netData(), congestion});
        campaign.push_back({core::netAddrData(), congestion});
    }
    return campaign;
}

/** Time one measurement, its indexed walk in @p index_order;
 *  nullopt when the machine lacks the transfer (no DMA, no
 *  co-processor, a pattern the deposit engine refuses). */
std::optional<util::MBps>
runMeasurement(const MachineConfig &cfg, const Measurement &m,
               std::span<const std::uint64_t> index_order)
{
    const core::BasicTransfer &t = m.transfer;
    switch (t.op) {
      case core::TransferOp::LocalCopy:
        return measureLocalCopy(cfg, t.read, t.write, measureWords,
                                nullptr, index_order);
      case core::TransferOp::LoadSend:
        return measureLoadSend(cfg, t.read, measureWords, index_order);
      case core::TransferOp::FetchSend:
        return measureFetchSend(cfg);
      case core::TransferOp::ReceiveStore:
        return measureReceiveStore(cfg, t.write, measureWords,
                                   index_order);
      case core::TransferOp::ReceiveDeposit:
        return measureReceiveDeposit(cfg, t.write, measureWords,
                                     index_order);
      case core::TransferOp::NetData:
        return measureNetwork(cfg, Framing::DataOnly, m.congestion);
      case core::TransferOp::NetAddrData:
        return measureNetwork(cfg, Framing::AddrDataPair,
                              m.congestion);
    }
    util::panic("runMeasurement: bad op");
}

/** Record one rate into @p table; nullopt leaves the transfer
 *  absent. */
void
record(core::ThroughputTable &table, const Measurement &m,
       const std::optional<util::MBps> &rate)
{
    if (!rate)
        return;
    if (core::isNetworkOp(m.transfer.op))
        table.setNetwork(m.transfer.op, m.congestion, *rate);
    else
        table.set(m.transfer, *rate);
}

} // namespace

core::ThroughputTable
measuredTable(const MachineConfig &cfg)
{
    sweep::Farm serial({0, 0});
    return std::move(measuredTables({&cfg, 1}, serial).front());
}

std::vector<core::ThroughputTable>
measuredTables(std::span<const MachineConfig> configs,
               sweep::Farm &farm)
{
    const std::vector<Measurement> campaign = measurementCampaign();
    const std::size_t n = campaign.size();
    // Every indexed walk of the campaign visits the same permutation,
    // the one each walk would draw on its own: draw it once.
    const std::vector<std::uint64_t> index_order =
        util::Rng(walkSeed).permutation(measureWords);
    auto rates = farm.map<std::optional<util::MBps>>(
        configs.size() * n, [&](std::size_t i, int) {
            return runMeasurement(configs[i / n], campaign[i % n],
                                  index_order);
        });
    // Record in campaign order, whichever worker measured what.
    std::vector<core::ThroughputTable> tables(configs.size());
    for (std::size_t c = 0; c < configs.size(); ++c) {
        tables[c].setMachineName(configs[c].name + " (sim)");
        for (std::size_t j = 0; j < n; ++j)
            record(tables[c], campaign[j], rates[c * n + j]);
    }
    return tables;
}

} // namespace ct::sim
