#include "units.h"

#include "logging.h"

namespace ct::util {

MBps
toMBps(Bytes bytes, Cycles cycles, double clock_hz)
{
    if (cycles == 0)
        fatal("toMBps: zero cycle count");
    double seconds = static_cast<double>(cycles) / clock_hz;
    return static_cast<double>(bytes) / 1e6 / seconds;
}

double
toSeconds(Cycles cycles, double clock_hz)
{
    return static_cast<double>(cycles) / clock_hz;
}

} // namespace ct::util
