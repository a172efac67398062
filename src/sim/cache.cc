#include "cache.h"

#include <bit>

#include "util/logging.h"

namespace ct::sim {

Cache::Cache(const CacheConfig &config) : cfg(config)
{
    if (!isPowerOfTwo(cfg.sizeBytes) || !isPowerOfTwo(cfg.lineBytes))
        util::fatal("Cache: size and line must be powers of two");
    if (cfg.associativity == 0)
        util::fatal("Cache: zero associativity");
    Bytes line_count = cfg.sizeBytes / cfg.lineBytes;
    if (line_count % cfg.associativity != 0)
        util::fatal("Cache: line count not divisible by associativity");
    Bytes num_sets = line_count / cfg.associativity;
    if (!isPowerOfTwo(num_sets))
        util::fatal("Cache: set count must be a power of two");
    switch (cfg.writePolicy) {
      case WritePolicy::WriteAround:
      case WritePolicy::WriteThrough:
      case WritePolicy::WriteBack:
        break;
      default:
        util::fatal("Cache: bad write policy");
    }
    lines.resize(line_count);
    lineShift = static_cast<unsigned>(std::countr_zero(cfg.lineBytes));
    lineMask = ~(static_cast<Addr>(cfg.lineBytes) - 1);
    setMask = num_sets - 1;
}

Cache::Line &
Cache::victim(Addr line_addr)
{
    std::size_t set = setIndex(line_addr);
    Line *lru = &lines[set * cfg.associativity];
    for (unsigned way = 1; way < cfg.associativity; ++way) {
        Line &line = lines[set * cfg.associativity + way];
        if (!line.valid)
            return line;
        if (line.lastUse < lru->lastUse)
            lru = &line;
    }
    return *lru;
}

void
Cache::invalidateLine(Addr addr)
{
    if (Line *line = findLine(lineAddr(addr))) {
        line->valid = false;
        line->dirty = false;
        ++counters.invalidations;
    }
}

void
Cache::invalidateAll()
{
    for (Line &line : lines) {
        if (line.valid)
            ++counters.invalidations;
        line.valid = false;
        line.dirty = false;
    }
}

bool
Cache::contains(Addr addr) const
{
    return findLine(lineAddr(addr)) != nullptr;
}

} // namespace ct::sim
