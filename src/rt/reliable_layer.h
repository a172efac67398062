/**
 * @file
 * Reliable delivery on an unreliable interconnect. ReliableLayer
 * wraps any MessageLayer with an end-to-end transport interposed at
 * the network boundary:
 *
 *  - every outbound data packet gets a per-(src,dst)-channel sequence
 *    number and a CRC32C checksum, and a copy is retained for
 *    retransmission;
 *  - the receiver verifies the checksum (NACKing corrupted packets),
 *    suppresses duplicates, reorders out-of-order arrivals, releases
 *    packets to the wrapped layer strictly in sequence order, and
 *    returns cumulative ACKs;
 *  - the sender retransmits on NACK or on a simulated-cycle timeout
 *    with exponential backoff and a bounded retry budget.
 *
 * On a permanent deposit-engine (ADP-datapath) failure the wrapped
 * chained layer cannot finish: its address-data-pair chunks are
 * refused. Instead of erroring, ReliableLayer gracefully degrades,
 * re-running the whole operation through the buffer-packing path
 * (xC1 o (1S0 || Nd || 0D1) o 1Cy), which only needs contiguous
 * deposits. The result is flagged `degraded` and the downgrade is
 * logged; the makespan includes both the aborted chained phase and
 * the packing recovery. A wrapped layer that already is buffer
 * packing never degrades: it needs no ADP datapath, so a machine
 * whose engine died in an earlier run runs it once, as is.
 */

#ifndef CT_RT_RELIABLE_LAYER_H
#define CT_RT_RELIABLE_LAYER_H

#include <utility>
#include <vector>

#include "rt/layer.h"
#include "rt/packing_layer.h"

namespace ct::rt {

/** Transport tunables. */
struct ReliableOptions
{
    /** Initial retransmission timeout in simulated cycles. */
    Cycles retransmitTimeout = 30000;
    /** Timeout multiplier per retry (exponential backoff). */
    double backoff = 2.0;
    /** Retransmissions per packet before it is abandoned. */
    int maxRetries = 12;
    /** Degrade to buffer packing on permanent engine failure. */
    bool degradeToPacking = true;
    /** Options of the fallback packing layer. */
    PackingOptions fallback;
};

/**
 * Transport counters for one run. A snapshot view over the
 * machine-registry "rt.reliable.*" metrics: the transport counts into
 * registry cells (reset when a run starts) and the layer materializes
 * this struct when the run finishes.
 */
struct ReliableStats
{
    std::uint64_t dataPackets = 0;
    std::uint64_t retransmits = 0;
    std::uint64_t acksSent = 0;
    std::uint64_t nacksSent = 0;
    std::uint64_t duplicatesDropped = 0;
    std::uint64_t checksumFailures = 0;
    std::uint64_t outOfOrder = 0;
    /** Packets given up after the retry budget (should stay 0). */
    std::uint64_t abandoned = 0;
    /** Retry budgets exhausted (every abandon hits this first; a
     *  policy controller watches it to tighten or relax budgets). */
    std::uint64_t retryExhausted = 0;
    /** Degradation transitions to the packing fallback this run. */
    std::uint64_t degradations = 0;
    /** Pending packets dropped because an endpoint node died. The
     *  watchdog clears them so the run can wind down; verification
     *  excludes the flows of a dead endpoint. */
    std::uint64_t deadEndpointDrops = 0;
    /** Pending packets written off because no live route existed
     *  (the channel is route-suspect: partition or dead port). */
    std::uint64_t routeSuspects = 0;
    /** Ack round-trip observations, Karn-filtered (first-transmission
     *  acks only; a retransmitted packet's ack is ambiguous). The
     *  resilience controller floors its retransmit timeout at a
     *  multiple of the mean so adaptation cannot tighten below the
     *  loaded path's round-trip time. */
    Cycles rttSumCycles = 0;
    std::uint64_t rttSamples = 0;
    /** Directed (src,dst) channels that actually carried traffic.
     *  Channel state materializes on first touch, so this is the
     *  transport's footprint: O(active pairs), never nodeCount()². */
    std::uint64_t activeChannels = 0;
    /** Channels on which delivery was given up (deduplicated).
     *  Dead-endpoint drops are expected losses and not listed. */
    std::vector<std::pair<sim::NodeId, sim::NodeId>>
        abandonedChannels;
    bool degraded = false;
};

/** Reliability wrapper around any message layer. */
class ReliableLayer : public MessageLayer
{
  public:
    explicit ReliableLayer(std::unique_ptr<MessageLayer> inner,
                           ReliableOptions options = {});

    std::string name() const override;

    RunResult run(sim::Machine &machine, const CommOp &op) override;

    /** Counters of the most recent run. */
    const ReliableStats &stats() const { return counters; }

  private:
    std::unique_ptr<MessageLayer> inner;
    ReliableOptions opts;
    ReliableStats counters;
};

/** Convenience: reliable transport over a default chained layer. */
std::unique_ptr<ReliableLayer>
makeReliableChained(ReliableOptions options = {});

} // namespace ct::rt

#endif // CT_RT_RELIABLE_LAYER_H
