/**
 * @file
 * Published throughput figures and hardware capabilities of the two
 * machines studied in the paper (Tables 1-4 plus §3.5).
 *
 * Strides the paper does not tabulate (e.g. stride 16 in Table 5) are
 * filled in with curve samples consistent with Figure 4 and with the
 * stride-16 values implied by the paper's own Table 5 arithmetic; see
 * EXPERIMENTS.md for the derivation.
 */

#ifndef CT_CORE_MACHINE_PARAMS_H
#define CT_CORE_MACHINE_PARAMS_H

#include <string>

#include "core/basic_transfer.h"

namespace ct::core {

/** The two machines evaluated in the paper. */
enum class MachineId {
    T3d,
    Paragon,
};

/** Display name: "T3D" / "Paragon". */
std::string machineName(MachineId id);

/**
 * Hardware capabilities that determine which communication strategies
 * a machine can execute (paper §3.5).
 */
struct MachineCaps
{
    std::string name;

    /** DMA can feed the NI from contiguous memory (Paragon 1F0). */
    bool hasFetchSend = false;

    /**
     * Deposit engine handles any access pattern via address-data
     * pairs (the T3D annex). When false, only contiguous deposits
     * (0D1) are available, if depositContiguous is set.
     */
    bool depositAnyPattern = false;

    /** Contiguous background deposit (0D1) exists. */
    bool depositContiguous = false;

    /**
     * A processor is available to drain the NI with arbitrary store
     * patterns while the main processor sends (Paragon co-processor,
     * giving 0Ry).
     */
    bool coProcReceive = false;

    /** Congestion factor representative for dense patterns (§4.3). */
    double defaultCongestion = 2.0;

    /**
     * Aggregate store-only / load-only memory bandwidth, used by the
     * resource-constraint rule (2 x |xQy| <= |0C1|) when every node
     * sends and receives at once.
     */
    util::MBps storeOnlyBandwidth = 0.0;
    util::MBps loadOnlyBandwidth = 0.0;

    /** Node clock, used when converting simulated cycles. */
    double clockHz = 0.0;
};

/**
 * The paper's measured basic-transfer throughputs for a machine: a
 * process-wide immutable table per machine, built on first use and
 * shared by every caller (panics on a bad id).
 */
const ThroughputTable &paperTable(MachineId id);

/** The paper's description of a machine's hardware capabilities: a
 *  process-wide immutable record per machine, like paperTable(). */
const MachineCaps &paperCaps(MachineId id);

} // namespace ct::core

#endif // CT_CORE_MACHINE_PARAMS_H
