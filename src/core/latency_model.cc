#include "latency_model.h"

#include "util/logging.h"

namespace ct::core {

MessageCostModel::MessageCostModel(util::MBps asymptotic_mbps,
                                   util::Cycles startup_cycles,
                                   util::Cycles sync_cycles,
                                   double clock_hz)
    : peak(asymptotic_mbps),
      startupSeconds(static_cast<double>(startup_cycles) / clock_hz),
      syncSeconds(static_cast<double>(sync_cycles) / clock_hz)
{
    if (peak <= 0.0)
        util::fatal("MessageCostModel: non-positive throughput");
    if (clock_hz <= 0.0)
        util::fatal("MessageCostModel: non-positive clock");
}

double
MessageCostModel::secondsFor(util::Bytes bytes) const
{
    return startupSeconds + syncSeconds +
           static_cast<double>(bytes) / (peak * 1e6);
}

util::MBps
MessageCostModel::throughputAt(util::Bytes bytes) const
{
    if (bytes == 0)
        return 0.0;
    return static_cast<double>(bytes) / 1e6 / secondsFor(bytes);
}

util::Bytes
MessageCostModel::halfPowerPoint() const
{
    // throughput(n) = peak/2  <=>  n / peak = startup + sync + n/peak
    // ... solving n/(s + n/B) = B/2 gives n = s * B.
    double n = (startupSeconds + syncSeconds) * peak * 1e6;
    return static_cast<util::Bytes>(n);
}

} // namespace ct::core
