#include "bus.h"

#include <bit>

#include "util/logging.h"

namespace ct::sim {

Bus::Bus(const BusConfig &config)
    : cfg(config),
      widthShift(static_cast<unsigned>(std::countr_zero(cfg.bytesPerCycle)))
{
    if (modeled() && !isPowerOfTwo(cfg.bytesPerCycle))
        util::fatal("Bus: bytes per cycle must be a power of two");
}

void
Bus::zeroByteTransaction()
{
    util::fatal("Bus::transact: zero-byte transaction");
}

} // namespace ct::sim
