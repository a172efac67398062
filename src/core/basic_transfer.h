/**
 * @file
 * Basic transfers of the copy-transfer model (paper §3.2) and the
 * throughput table that assigns each one a measured MB/s figure.
 */

#ifndef CT_CORE_BASIC_TRANSFER_H
#define CT_CORE_BASIC_TRANSFER_H

#include <array>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/pattern.h"
#include "util/units.h"

namespace ct::core {

/**
 * The seven basic transfer operations. Intra-node transfers move data
 * between memory and the network interface (or within memory); the two
 * network transfers move data between nodes.
 */
enum class TransferOp {
    LocalCopy,      ///< xCy: processor load/store loop within memory
    LoadSend,       ///< xS0: processor loads pattern x, stores to NI
    FetchSend,      ///< xF0: DMA/fetch engine feeds the NI in background
    ReceiveStore,   ///< 0Ry: processor drains NI, stores with pattern y
    ReceiveDeposit, ///< 0Dy: deposit engine stores in the background
    NetData,        ///< Nd:   network transfer, data words only
    NetAddrData,    ///< Nadp: network transfer, address-data pairs
};

/** True for Nd / Nadp. */
bool isNetworkOp(TransferOp op);

/** Formula letter for an op: "C", "S", "F", "R", "D", "Nd", "Nadp". */
std::string opName(TransferOp op);

/**
 * One basic transfer: an operation plus its read (left subscript) and
 * write (right subscript) access patterns, e.g. 64C1 or wS0.
 */
struct BasicTransfer
{
    TransferOp op = TransferOp::LocalCopy;
    AccessPattern read;
    AccessPattern write;

    /** Formula notation, e.g. "64C1", "wS0", "Nd". */
    std::string name() const;

    bool operator==(const BasicTransfer &other) const = default;
};

/** Construct xCy. */
BasicTransfer localCopy(AccessPattern read, AccessPattern write);
/** Construct xS0. */
BasicTransfer loadSend(AccessPattern read);
/** Construct xF0. */
BasicTransfer fetchSend(AccessPattern read);
/** Construct 0Ry. */
BasicTransfer receiveStore(AccessPattern write);
/** Construct 0Dy. */
BasicTransfer receiveDeposit(AccessPattern write);
/** Construct Nd. */
BasicTransfer netData();
/** Construct Nadp. */
BasicTransfer netAddrData();

/**
 * Throughput figures for basic transfers on one machine.
 *
 * Entries are stored at sampled patterns (the strides a measurement
 * campaign actually ran). Lookups at unsampled strides interpolate
 * linearly in log2(stride) between neighbouring samples and clamp
 * beyond the largest sample, following the paper's simplification that
 * "the throughput for stride 64 applies to any larger stride".
 *
 * Network transfers are keyed by congestion factor instead of access
 * pattern; unsampled congestions interpolate geometrically.
 *
 * Samples are kept per op in sorted vectors: a lookup scans only its
 * own op's samples (a machine has at most a few dozen per op, few
 * enough that a scan beats a binary search), an op's strided curve
 * arrives in stride order, and each sample carries the log2 of its
 * strides (or of its congestion), taken once when it is recorded.
 */
class ThroughputTable
{
  public:
    /** Record a throughput figure for an intra-node transfer. */
    void set(const BasicTransfer &t, util::MBps mbps);

    /** Record a network throughput at a given congestion factor. */
    void setNetwork(TransferOp op, int congestion, util::MBps mbps);

    /**
     * Look up (possibly interpolating) the throughput of an
     * intra-node transfer. Returns nullopt when the machine does not
     * implement the transfer at all (e.g. 1F0 on the T3D).
     *
     * When both sides of a LocalCopy are non-contiguous and no exact
     * sample exists, the cost is estimated by combining the load side
     * and the store side:  1/|xCy| = 1/|xC1| + 1/|1Cy| - 1/|1C1|.
     */
    std::optional<util::MBps> lookup(const BasicTransfer &t) const;

    /** Look up network throughput at a congestion factor >= 1. */
    std::optional<util::MBps> lookupNetwork(TransferOp op,
                                            double congestion) const;

    /** Human-readable machine name, e.g. "T3D". */
    const std::string &machineName() const { return name; }
    void setMachineName(std::string n) { name = std::move(n); }

    /** Same name and the same samples, compared exactly. */
    bool operator==(const ThroughputTable &other) const = default;

  private:
    /** One intra-node sample, with log2 of each side's stride for
     *  the strided curves (-inf for the fixed and indexed sides). */
    struct Sample
    {
        AccessPattern read;
        AccessPattern write;
        util::MBps mbps = 0.0;
        double log2ReadStride = 0.0;
        double log2WriteStride = 0.0;

        bool operator==(const Sample &other) const = default;
    };

    /** One network sample at a congestion factor. */
    struct NetworkSample
    {
        int congestion = 1;
        double log2Congestion = 0.0;
        util::MBps mbps = 0.0;

        bool operator==(const NetworkSample &other) const = default;
    };

    static constexpr std::size_t kOps = 7;

    /**
     * Interpolate a strided lookup for a fixed op where only one side
     * varies. @p vary_read selects which subscript carries the stride.
     */
    std::optional<util::MBps> lookupStrided(TransferOp op,
                                            std::uint32_t stride,
                                            bool vary_read) const;

    std::optional<util::MBps> exact(const BasicTransfer &t) const;

    std::string name = "unnamed";
    /** Per op, sorted by (read, write), one sample per pair. */
    std::array<std::vector<Sample>, kOps> samples;
    /** Per network op, sorted by congestion, one sample each. */
    std::array<std::vector<NetworkSample>, kOps> network;
};

} // namespace ct::core

#endif // CT_CORE_BASIC_TRANSFER_H
