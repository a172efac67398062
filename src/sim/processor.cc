#include "processor.h"

namespace ct::sim {

Processor::Processor(const ProcessorConfig &config, MemorySystem &memory,
                     NodeRam &ram, BusMaster bus_master)
    : cfg(config), mem(memory), nodeRam(ram), master(bus_master)
{
}

template <typename Src, typename Dst>
Cycles
Processor::copyLoop(Src src, Dst dst, std::uint64_t count, Cycles start)
{
    Cycles now = start;
    for (std::uint64_t i = 0; i < count;
         ++i, src.advance(), dst.advance()) {
        if constexpr (Src::indexed)
            now += mem.load(src.indexAddr(), now, master);
        Addr saddr = src.elementAddr(nodeRam);
        now += mem.load(saddr, now, master);
        std::uint64_t value = nodeRam.readWord(saddr);
        if constexpr (Dst::indexed)
            now += mem.load(dst.indexAddr(), now, master);
        Addr daddr = dst.elementAddr(nodeRam);
        now += mem.store(daddr, now, master);
        nodeRam.writeWord(daddr, value);
        now += cfg.loopCyclesPerElem;
    }
    return now - start;
}

template <typename Src>
Cycles
Processor::gatherLoop(Src src, std::uint64_t count, Cycles start,
                      std::uint64_t *words)
{
    Cycles now = start;
    for (std::uint64_t i = 0; i < count; ++i, src.advance()) {
        if constexpr (Src::indexed)
            now += mem.load(src.indexAddr(), now, master);
        Addr addr = src.elementAddr(nodeRam);
        now += mem.load(addr, now, master);
        words[i] = nodeRam.readWord(addr);
        now += cfg.portStoreCycles + cfg.loopCyclesPerElem;
    }
    return now - start;
}

template <typename Dst>
Cycles
Processor::addrLoop(Dst dst, std::uint64_t count, Cycles start,
                    Addr *addrs)
{
    Cycles now = start;
    for (std::uint64_t i = 0; i < count; ++i, dst.advance()) {
        if constexpr (Dst::indexed)
            now += mem.load(dst.indexAddr(), now, master);
        addrs[i] = dst.elementAddr(nodeRam);
    }
    return now - start;
}

template <typename Dst>
Cycles
Processor::scatterLoop(Dst dst, std::uint64_t count, Cycles start,
                       const std::uint64_t *words)
{
    Cycles now = start;
    for (std::uint64_t i = 0; i < count; ++i, dst.advance()) {
        now += cfg.portLoadCycles;
        if constexpr (Dst::indexed)
            now += mem.load(dst.indexAddr(), now, master);
        Addr daddr = dst.elementAddr(nodeRam);
        now += mem.store(daddr, now, master);
        nodeRam.writeWord(daddr, words[i]);
        now += cfg.loopCyclesPerElem;
    }
    return now - start;
}

Cycles
Processor::copy(const PatternWalk &src, const PatternWalk &dst,
                std::uint64_t first, std::uint64_t count, Cycles start)
{
    return copy2(src, first, dst, first, count, start);
}

Cycles
Processor::copy2(const PatternWalk &src, std::uint64_t src_first,
                 const PatternWalk &dst, std::uint64_t dst_first,
                 std::uint64_t count, Cycles start)
{
    return withCursor(src, src_first, [&](auto s) {
        return withCursor(dst, dst_first, [&](auto d) {
            return copyLoop(s, d, count, start);
        });
    });
}

Cycles
Processor::gatherToPort(const PatternWalk &src, std::uint64_t first,
                        std::uint64_t count, Cycles start,
                        std::vector<std::uint64_t> &words)
{
    std::size_t at = words.size();
    words.resize(at + count);
    return withCursor(src, first, [&](auto s) {
        return gatherLoop(s, count, start, words.data() + at);
    });
}

Cycles
Processor::computeRemoteAddrs(const PatternWalk &dst,
                              std::uint64_t first, std::uint64_t count,
                              Cycles start, std::vector<Addr> &addrs)
{
    std::size_t at = addrs.size();
    addrs.resize(at + count);
    return withCursor(dst, first, [&](auto d) {
        return addrLoop(d, count, start, addrs.data() + at);
    });
}

Cycles
Processor::scatterFromPort(const PatternWalk &dst, std::uint64_t first,
                           std::uint64_t count, Cycles start,
                           const std::uint64_t *words)
{
    return withCursor(dst, first, [&](auto d) {
        return scatterLoop(d, count, start, words);
    });
}

} // namespace ct::sim
