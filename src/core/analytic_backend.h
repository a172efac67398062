/**
 * @file
 * The analytic backend: rates a TransferProgram with the paper's
 * copy-transfer model. Three levels of fidelity:
 *
 *  - rate(): the steady-state algebra of §3.3 (sequential stages
 *    share resources -> reciprocal sum; parallel stages -> min),
 *    evaluated on the program's expr with its resource constraints.
 *  - costModel(): the latency extension — rate() plus the program's
 *    own per-message/per-step software costs, giving throughput as a
 *    function of message size and the half-power point.
 *  - predictRate(): the execution-aware predictor used for
 *    cross-validation against the simulator. It rates the program's
 *    *stages* grouped by hardware resource, adding the effects the
 *    steady-state algebra abstracts away: the shared-bus
 *    interleaving term of §5.1.4 (processor line fills serialize
 *    with engine bus bursts), per-chunk DMA setup amortization, and
 *    the sender-side address stream of chained transfers.
 */

#ifndef CT_CORE_ANALYTIC_BACKEND_H
#define CT_CORE_ANALYTIC_BACKEND_H

#include "core/latency_model.h"
#include "core/transfer_program.h"

namespace ct::core {

/**
 * Execution parameters of a machine beyond its throughput table —
 * what the execution-aware predictor needs to know about *how* the
 * runtime layers drive the hardware. rt::executionProfileFor()
 * derives one from a simulator machine config.
 */
struct ExecutionProfile
{
    /** Node clock, for converting cycle costs to time. */
    double clockHz = 0.0;
    /**
     * True when processors and engines contend on one memory bus
     * (Paragon): contiguous processor loads then serialize with
     * engine bursts instead of overlapping them (§5.1.4).
     */
    bool sharedBus = false;
    /** Words moved per pipelined chunk by the runtime layers. */
    std::uint64_t chunkWords = 64;
    /** Per-chunk setup cost of the DMA fetch engine, paid by layers
     *  that kick the engine once per chunk. */
    util::Cycles dmaChunkSetupCycles = 0;
    /** Rate of a pure contiguous index-load stream (the machine's
     *  load-only bandwidth), used for addressCompute stages. */
    util::MBps indexStreamMBps = 0.0;
};

/**
 * The measured fault environment a program executes under, sampled by
 * a closed-loop controller at a round boundary. The backend folds it
 * into the cost surface: every lost packet is eventually resent, so
 * the extra copies serialize on the program's wire stage (at that
 * style's own framing rate — address-data pairs pay twice the bytes
 * of data framing), and the transport detects each loss by a timer,
 * stalling roughly one retransmit timeout per lost transmission. The
 * stall term is style-independent; the wire term is what moves the
 * chained/packing break-even point.
 */
struct FaultEnvironment
{
    /** Per-packet wire loss probability (drops + corruptions). */
    double packetLoss = 0.0;
    /** Observed congestion factor of the traffic pattern. */
    double congestion = 1.0;
    /** Transport retransmission timeout (detection stall per loss). */
    util::Cycles retransmitTimeout = 0;
    /** Payload words per wire packet (the layers' chunk size). */
    std::uint64_t packetWords = 64;
};

/** Rates TransferPrograms against one machine's throughput table. */
class AnalyticBackend
{
  public:
    AnalyticBackend(ThroughputTable table, ExecutionProfile profile);

    /** Steady-state model rate (the paper's algebra, with the
     *  program's resource constraints applied). */
    std::optional<util::MBps> rate(const TransferProgram &program,
                                   double congestion) const;

    /** rate() extended with the program's software costs. */
    std::optional<MessageCostModel>
    costModel(const TransferProgram &program,
              double congestion) const;

    /**
     * Execution-aware steady-state prediction (see file comment).
     * @p congestion applies to the wire stage only.
     */
    std::optional<util::MBps>
    predictRate(const TransferProgram &program,
                double congestion) const;

    /** predictRate() pushed through the latency model: effective
     *  throughput for one message of @p bytes. */
    std::optional<util::MBps>
    predictThroughputAt(const TransferProgram &program,
                        util::Bytes bytes, double congestion) const;

    /**
     * predictRate() under a measured fault environment: the base
     * prediction at env.congestion, degraded by retransmission wire
     * traffic and timeout-detection stalls (see FaultEnvironment).
     */
    std::optional<util::MBps>
    faultedRate(const TransferProgram &program,
                const FaultEnvironment &env) const;

    /**
     * Packet-loss probability at which programs @p a and @p b rate
     * equal under @p env (env.packetLoss is ignored; congestion and
     * transport parameters are held fixed). nullopt when the faulted
     * rates never cross on [0, 0.95] — one style dominates the whole
     * loss range.
     */
    std::optional<double>
    breakEvenLoss(const TransferProgram &a, const TransferProgram &b,
                  const FaultEnvironment &env) const;

    /**
     * Congestion factor at which @p a and @p b rate equal under
     * @p env (env.congestion ignored, loss held fixed). nullopt when
     * the surfaces never cross on [1, @p maxCongestion].
     */
    std::optional<double>
    breakEvenCongestion(const TransferProgram &a,
                        const TransferProgram &b,
                        const FaultEnvironment &env,
                        double maxCongestion = 16.0) const;

    const ThroughputTable &table() const { return table_; }
    const ExecutionProfile &profile() const { return profile_; }

  private:
    ThroughputTable table_;
    ExecutionProfile profile_;
};

/**
 * The backend the §5 planner ranks styles with: the paper's throughput
 * table and the machine's clock. It carries no execution profile, so
 * it serves rate() and costModel(); the execution-aware predictors
 * need a profile from rt::executionProfileFor().
 */
AnalyticBackend paperBackend(MachineId id);

} // namespace ct::core

#endif // CT_CORE_ANALYTIC_BACKEND_H
