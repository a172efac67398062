#include "write_buffer.h"

#include "util/logging.h"

namespace ct::sim {

WriteBuffer::WriteBuffer(const WriteBufferConfig &config, Dram &dram)
    : cfg(config), dram(dram), queue(cfg.entries)
{
    if (!isPowerOfTwo(cfg.lineBytes))
        util::fatal("WriteBuffer: line size must be a power of two");
}

Cycles
WriteBuffer::drainTime(Cycles now)
{
    issueBatch(now);
    if (queue.empty() || queue.back().completesAt <= now)
        return 0;
    return queue.back().completesAt - now;
}

std::size_t
WriteBuffer::occupancy(Cycles now) const
{
    std::size_t count = unissued;
    for (std::size_t i = 0; i < issued(); ++i)
        count += queue[i].completesAt > now;
    return count;
}

} // namespace ct::sim
