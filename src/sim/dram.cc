#include "dram.h"

#include <bit>

#include "util/logging.h"

namespace ct::sim {

Dram::Dram(const DramConfig &config) : cfg(config)
{
    if (!isPowerOfTwo(cfg.rowBytes) || !isPowerOfTwo(cfg.beatBytes) ||
        !isPowerOfTwo(cfg.bankSpanBytes))
        util::fatal("Dram: sizes must be powers of two");
    if (cfg.beatBytes > cfg.rowBytes)
        util::fatal("Dram: beat larger than row");
    if (cfg.bankSpanBytes < cfg.rowBytes)
        util::fatal("Dram: bank span smaller than a row");
    if (cfg.banks <= 0)
        util::fatal("Dram: need at least one bank");
    banks.resize(static_cast<std::size_t>(cfg.banks));
    spanShift = static_cast<unsigned>(std::countr_zero(cfg.bankSpanBytes));
    beatShift = static_cast<unsigned>(std::countr_zero(cfg.beatBytes));
    rowMask = ~(static_cast<Addr>(cfg.rowBytes) - 1);
    banksPowerOfTwo = isPowerOfTwo(static_cast<Addr>(cfg.banks));
    bankMask = static_cast<Addr>(cfg.banks) - 1;
}

void
Dram::closeRows()
{
    for (Bank &bank : banks)
        bank.rowOpen = false;
}

void
Dram::zeroByteRequest()
{
    util::fatal("Dram::access: zero-byte request");
}

} // namespace ct::sim
