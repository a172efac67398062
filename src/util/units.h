/**
 * @file
 * Units used throughout the library.
 *
 * Throughputs follow the paper's convention: megabytes per second where
 * a megabyte is 1e6 bytes, and throughput counts only *payload* array
 * elements (headers, addresses and index loads consume raw bandwidth
 * but never count toward the reported figure).
 */

#ifndef CT_UTIL_UNITS_H
#define CT_UTIL_UNITS_H

#include <cstdint>

namespace ct::util {

/** Simulated clock cycles. */
using Cycles = std::uint64_t;

/** Bytes of payload or storage. */
using Bytes = std::uint64_t;

/** Throughput in MB/s (1 MB = 1e6 bytes, payload only). */
using MBps = double;

/** The paper's basic unit of transfer: one 64-bit word. */
inline constexpr Bytes wordBytes = 8;

/** Convert a byte count moved in a cycle count at a clock to MB/s. */
MBps toMBps(Bytes bytes, Cycles cycles, double clock_hz);

/** Seconds represented by @p cycles at @p clock_hz. */
double toSeconds(Cycles cycles, double clock_hz);

} // namespace ct::util

#endif // CT_UTIL_UNITS_H
