/**
 * @file
 * Micro-benchmarks that measure the throughput of every basic
 * transfer on the simulated machines, reproducing the measurement
 * campaign of the paper's §4 (Tables 1-4 and Figure 4). The measured
 * table can then be fed into the copy-transfer model exactly as the
 * paper feeds its measured figures.
 */

#ifndef CT_SIM_MEASURE_H
#define CT_SIM_MEASURE_H

#include <optional>
#include <span>
#include <vector>

#include "core/basic_transfer.h"
#include "sim/machine.h"

namespace ct::sweep {
class Farm;
}

namespace ct::sim {

/** Default element count of one measurement (large vs the cache). */
inline constexpr std::uint64_t measureWords = 1ull << 15;

/** Host-side footprint counters of one measurement run. */
struct MeasureStats
{
    /** Node-RAM pages the run materialized. */
    std::size_t residentPages = 0;
};

/*
 * The measurements below that take an index_order walk an indexed
 * pattern in a permutation of `words` elements drawn from a fixed
 * seed, the same one every time. measuredTables() draws it once per
 * campaign and passes it in; left empty, a measurement draws its own.
 */

/** Throughput of a local memory-to-memory copy xCy. */
util::MBps measureLocalCopy(const MachineConfig &cfg,
                            core::AccessPattern x, core::AccessPattern y,
                            std::uint64_t words = measureWords,
                            MeasureStats *stats = nullptr,
                            std::span<const std::uint64_t> index_order = {});

/** Throughput of the load-send transfer xS0. */
util::MBps measureLoadSend(const MachineConfig &cfg,
                           core::AccessPattern x,
                           std::uint64_t words = measureWords,
                           std::span<const std::uint64_t> index_order = {});

/** Throughput of the DMA fetch-send 1F0; nullopt without a DMA. */
std::optional<util::MBps>
measureFetchSend(const MachineConfig &cfg,
                 std::uint64_t words = measureWords);

/**
 * Throughput of the receive-store 0Ry executed by the communication
 * co-processor; nullopt when the node has none (T3D).
 */
std::optional<util::MBps>
measureReceiveStore(const MachineConfig &cfg, core::AccessPattern y,
                    std::uint64_t words = measureWords,
                    std::span<const std::uint64_t> index_order = {});

/**
 * Throughput of the background deposit 0Dy; nullopt when the deposit
 * engine cannot handle the pattern (Paragon DMA for y != 1).
 */
std::optional<util::MBps>
measureReceiveDeposit(const MachineConfig &cfg, core::AccessPattern y,
                      std::uint64_t words = measureWords,
                      std::span<const std::uint64_t> index_order = {});

/**
 * Per-flow network bandwidth at a fixed congestion factor (1, 2 or
 * 4), with data-only or address-data-pair framing, measured on a
 * 16-node ring partition like the paper's fixed-congestion runs.
 */
util::MBps measureNetwork(const MachineConfig &cfg, Framing framing,
                          int congestion,
                          std::uint64_t words_per_flow = measureWords);

/**
 * Run the whole campaign serially: strides 1..64, indexed patterns,
 * all engines, network at congestion 1/2/4. The result mirrors the
 * structure of core::paperTable() with simulator-measured values.
 */
core::ThroughputTable measuredTable(const MachineConfig &cfg);

/**
 * The campaign of every config in @p configs, measured as one batch
 * on @p farm (measuredTable() is this on an inline farm). Each
 * measurement is a pure function of its config and its place in the
 * campaign -- it builds its own Node or Machine -- and the results
 * are recorded in campaign order, so entry i equals
 * measuredTable(configs[i]) bit for bit whatever the worker count
 * or steal schedule (DESIGN.md §14).
 */
std::vector<core::ThroughputTable>
measuredTables(std::span<const MachineConfig> configs,
               sweep::Farm &farm);

} // namespace ct::sim

#endif // CT_SIM_MEASURE_H
