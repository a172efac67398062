/**
 * @file
 * Message-layer interface: the different software implementations of
 * a communication operation the paper compares (§5.1). Each layer
 * executes a CommOp end-to-end on a simulated machine, actually
 * moving the data, and reports the makespan.
 */

#ifndef CT_RT_LAYER_H
#define CT_RT_LAYER_H

#include <memory>
#include <string>

#include "rt/comm_op.h"
#include "util/logging.h"

namespace ct::rt {

/** Outcome of one end-to-end run. */
struct RunResult
{
    Cycles makespan = 0;
    Bytes payloadBytes = 0;
    /** Largest payload injected by one node (basis of per-node MB/s). */
    Bytes maxBytesPerSender = 0;
    /**
     * True when the run completed on a fallback path (e.g. chained
     * transfers downgraded to buffer packing after a permanent
     * deposit-engine failure). Reports label such rows "degraded".
     */
    bool degraded = false;

    /**
     * Per-node throughput as the paper reports it: the data one node
     * moved divided by the time the whole step took.
     */
    util::MBps perNodeMBps(const sim::Machine &machine) const
    {
        return rateOf(machine, maxBytesPerSender);
    }

    /** Aggregate throughput of the whole step. */
    util::MBps totalMBps(const sim::Machine &machine) const
    {
        return rateOf(machine, payloadBytes);
    }

  private:
    /** Shared guard: a zero makespan reports 0 MB/s with a warning. */
    util::MBps rateOf(const sim::Machine &machine, Bytes bytes) const
    {
        if (makespan == 0) {
            util::warn("RunResult: zero makespan, reporting 0 MB/s");
            return 0.0;
        }
        return machine.toMBps(bytes, makespan);
    }
};

/** Abstract message layer. */
class MessageLayer
{
  public:
    virtual ~MessageLayer() = default;

    /** Human-readable layer name, e.g. "chained". */
    virtual std::string name() const = 0;

    /**
     * Execute @p op on @p machine. The machine must be freshly
     * constructed (or otherwise quiescent); the layer drives the
     * machine's event queue to completion.
     */
    virtual RunResult run(sim::Machine &machine, const CommOp &op) = 0;

    /**
     * True when the layer's event structure may run under the
     * conservative parallel engine (sim::ParallelEngine): every
     * event is partition-tagged, cross-partition effects go through
     * the network or are explicitly scoped, and no cancellable
     * timers are armed. Default is the safe answer; the driver
     * (SimBackend, the engine benches) calls
     * machine.setParallelEnabled() with this before running.
     */
    virtual bool parallelSafe() const { return false; }

    /**
     * The layer's minimum cross-partition delay in cycles: no event
     * executing on one node ever schedules an event on another node
     * fewer than this many cycles ahead. Used as the parallel
     * engine's window lookahead (clamped to the network's own wire
     * floor); only meaningful when parallelSafe(). 1 is always
     * correct -- the engine then only parallelizes same-timestamp
     * events -- and any overdeclaration is caught fatally by the
     * engine's commit-time check.
     */
    virtual sim::Cycles
    parallelLookahead(const sim::Machine &machine,
                      const CommOp &op) const
    {
        (void)machine;
        (void)op;
        return 1;
    }
};

/** Number of words moved per pipelined chunk by all layers. */
inline constexpr std::uint64_t layerChunkWords = 64;

/** In-flight chunks allowed per flow before the sender throttles. */
inline constexpr int layerCredits = 4;

/** Bytes of one staging ring: layerCredits chunks of layerChunkWords. */
inline constexpr sim::Bytes layerRingBytes =
    layerCredits * layerChunkWords * 8;

} // namespace ct::rt

#endif // CT_RT_LAYER_H
