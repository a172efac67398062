#include "memory.h"

#include "util/logging.h"

namespace ct::sim {

MemorySystem::MemorySystem(const MemoryConfig &config)
    : cfg(config), dramModel(cfg.dram), cacheModel(cfg.cache),
      wbq(cfg.writeBuffer, dramModel), rdal(cfg.readAhead, dramModel),
      pipeline(cfg.loadPipeline), busModel(cfg.bus)
{
    if (cfg.readAhead.enabled &&
        cfg.readAhead.lineBytes != cfg.cache.lineBytes)
        util::fatal("MemorySystem: read-ahead line size must match "
                    "the cache line size");
}

Cycles
MemorySystem::engineRead(Addr addr, Bytes bytes, Cycles now,
                         BusMaster master)
{
    Cycles bus_extra = busModel.transact(master, bytes, now);
    Cycles completes =
        dramModel.access(addr, bytes, false, now + bus_extra).complete;
    return completes - now;
}

Cycles
MemorySystem::engineWrite(Addr addr, Bytes bytes, Cycles now,
                          BusMaster master)
{
    // Keep the processor cache coherent with background deposits.
    for (Addr line = alignDown(addr, cfg.cache.lineBytes);
         line < addr + bytes; line += cfg.cache.lineBytes)
        cacheModel.invalidateLine(line);
    Cycles bus_extra = busModel.transact(master, bytes, now);
    Cycles completes =
        dramModel.access(addr, bytes, true, now + bus_extra).complete;
    return completes - now;
}

Cycles
MemorySystem::fence(Cycles now)
{
    Cycles wait = wbq.drainTime(now);
    wait = std::max(wait, pipeline.drainTime(now));
    return wait;
}

void
MemorySystem::synchronize()
{
    rdal.reset();
    pipeline.reset();
}

} // namespace ct::sim
