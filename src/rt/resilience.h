/**
 * @file
 * Closed-loop resilience: a policy engine between the observability
 * layer and the transfer layers. At every round boundary the
 * controller receives a RoundObservation sampled from the machine's
 * metrics registry (retransmit rate, NACK ratio, dead-endpoint
 * drops, rerouted-link congestion, repair volume), folds the
 * *measured* fault environment into the analytic cost surface
 * (core::AnalyticBackend::faultedRate), and emits policy actions when
 * break-even is crossed:
 *
 *  - switch the implementation style (chained <-> buffer packing) at
 *    the next round boundary, via the style registry;
 *  - tighten or relax the reliable transport's retransmit timeout and
 *    retry budget, bounded and deterministic;
 *  - force an early checkpoint when the projected repair cost of the
 *    un-checkpointed rounds exceeds the cost of taking one.
 *
 * The controller is a pure decision engine: observe() touches no
 * simulator state, so the policy is unit-testable against synthetic
 * observation streams and trivially replayable. Determinism contract:
 * identical observation sequences produce bit-identical decision logs
 * (fingerprint() folds every decision into one FNV-1a value; chaos
 * replays compare fingerprints).
 *
 * A style switch needs the alternate's predicted rate to beat the
 * current style's by the hysteresis band, and switches are separated
 * by a cooldown, so the controller cannot oscillate on a static
 * environment: after a switch the reverse trade is outside the band
 * by construction.
 */

#ifndef CT_RT_RESILIENCE_H
#define CT_RT_RESILIENCE_H

#include <string>
#include <vector>

#include "core/analytic_backend.h"
#include "core/transfer_program.h"
#include "rt/comm_op.h"
#include "rt/reliable_layer.h"

namespace ct::rt {

/** Policy bounds and thresholds of the closed loop. */
struct ResilienceOptions
{
    /** Re-evaluate the style break-even each round. */
    bool adaptStyle = true;
    /** Retune the transport timeout / retry budget each round. */
    bool adaptTransport = true;
    /** Consider forcing early checkpoints on node-loss signals. */
    bool adaptCheckpoint = true;
    /** The alternate must beat the current style's faulted rate by
     *  this fraction before a switch fires (no-oscillation band). */
    double hysteresis = 0.15;
    /** Rounds a style switch is held before the next may fire. */
    int cooldownRounds = 2;
    /** Transport adaptation bounds. */
    Cycles minRetransmitTimeout = 6000;
    Cycles maxRetransmitTimeout = 120000;
    int maxRetries = 24;
    /** Tightening never takes the timeout below rttFloor times the
     *  smoothed ack round-trip: a timeout under the loaded path RTT
     *  reads its own echoes as losses and spirals. */
    double rttFloor = 2.0;
    /** EWMA weight of the newest loss sample. */
    double ewma = 0.5;
    /** Smoothed retransmit rate above this tightens the transport; a
     *  quarter of it relaxes back toward the baseline. The trigger is
     *  deliberately the raw retransmit rate, not the duplicate-
     *  corrected loss estimate: any timer firing -- genuine loss or
     *  spurious -- marks a channel stalled for a timeout, and round
     *  boundaries serialize those stalls, so a short timeout pays off
     *  even when some retransmissions are echoes. */
    double lossTighten = 0.002;
    /** Baseline transport tunables (the relax target). */
    ReliableOptions transport;
    std::string initialStyle = "chained";
    std::string alternateStyle = "buffer-packing";
};

/** What the controller can decide at a round boundary. */
enum class PolicyAction {
    Hold,
    SwitchStyle,
    TightenTransport,
    RelaxTransport,
    ForceCheckpoint,
};

const char *policyActionName(PolicyAction action);

/**
 * One round's registry sample, taken by the driver after the round
 * completes. Counter fields are per-round deltas (the reliable
 * transport resets its registry cells at every run start, so a fresh
 * layer per round reads them off directly).
 */
struct RoundObservation
{
    int round = 0;
    std::uint64_t dataPackets = 0;
    std::uint64_t retransmits = 0;
    /** Receiver-side duplicate data packets. Each one is evidence of
     *  a *spurious* retransmission (both copies arrived), so the
     *  controller subtracts them from the loss estimate -- otherwise
     *  a too-tight timeout inflates the estimate, which tightens the
     *  timeout further (positive feedback). */
    std::uint64_t duplicatesDropped = 0;
    std::uint64_t nacksSent = 0;
    std::uint64_t retryExhausted = 0;
    std::uint64_t abandoned = 0;
    std::uint64_t deadEndpointDrops = 0;
    /** Karn-filtered ack round-trip sample sum and count; the
     *  controller floors the tightened timeout at a multiple of the
     *  mean so it can never sit below the loaded path RTT. */
    Cycles rttSumCycles = 0;
    std::uint64_t rttSamples = 0;
    /** Cumulative rerouted-link count (network stats). */
    std::uint64_t reroutedLinks = 0;
    /** Congestion of the op's demands under the current outages. */
    double congestion = 1.0;
    /** Routability split of the op's demands under the current
     *  outages. congestion == 1.0 with routedDemands == 0 means
     *  *nothing* is routable -- previously indistinguishable from a
     *  perfectly balanced network, which made the controller compare
     *  styles against an absurdly optimistic environment. */
    int routedDemands = 0;
    int unroutableDemands = 0;
    /** Payload words this round moved (checkpoint-cost proxy). */
    std::uint64_t roundWords = 0;
    Cycles roundMakespan = 0;
};

/** One policy decision, with the evidence that produced it. */
struct PolicyDecision
{
    int round = 0;
    PolicyAction action = PolicyAction::Hold;
    std::string fromStyle;
    std::string toStyle;
    /** Smoothed per-packet loss estimate the decision used. */
    double observedLoss = 0.0;
    double observedCongestion = 1.0;
    /** Faulted rates (MB/s) of current and alternate styles. */
    double rateCurrent = 0.0;
    double rateAlternate = 0.0;
    /** Transport tunables after the decision. */
    Cycles retransmitTimeout = 0;
    int maxRetries = 0;
    std::string reason;
};

/**
 * The closed-loop policy engine. Construct once per operation with
 * the machine and the transfer's patterns; feed observe() one
 * RoundObservation per round; read the current style / transport and
 * build the next round's layer with makeLayer().
 */
class ResilienceController
{
  public:
    ResilienceController(const sim::MachineConfig &config,
                         core::AccessPattern x, core::AccessPattern y,
                         ResilienceOptions options = {});

    /** Digest one round; returns the decisions it triggered (also
     *  appended to the persistent log). Pure: no simulator access. */
    std::vector<PolicyDecision> observe(const RoundObservation &obs);

    /** Style key the next round should run. */
    const std::string &styleKey() const { return currentKey; }

    /** Transport tunables the next round should run. */
    const ReliableOptions &transport() const { return transportOpts; }

    /** Program of the current style (non-reliable; the layer wraps). */
    const core::TransferProgram &currentProgram() const
    {
        return current;
    }

    /** Reliable layer over the current style with the adapted
     *  transport tunables, ready for the next round. */
    std::unique_ptr<ReliableLayer> makeLayer() const;

    /** Full decision log (Hold rounds are not recorded). */
    const std::vector<PolicyDecision> &decisions() const
    {
        return log;
    }

    /** FNV-1a fold of the decision log; bit-identical across replays
     *  of the same observation stream. */
    std::uint64_t fingerprint() const;

    /** Smoothed per-packet loss estimate (duplicate-corrected; feeds
     *  the analytic style comparison). */
    double smoothedLoss() const { return lossEwma; }

    /** Smoothed retransmit rate (uncorrected; drives the transport
     *  tighten/relax trigger). */
    double smoothedRetransmitRate() const { return retransEwma; }

    int styleSwitches() const { return switches; }

    const core::AnalyticBackend &backend() const { return analytic; }

  private:
    PolicyDecision baseDecision(const RoundObservation &obs) const;

    ResilienceOptions opts;
    core::AnalyticBackend analytic;
    core::TransferProgram current;
    core::TransferProgram alternate;
    std::string currentKey;
    std::string alternateKey;
    ReliableOptions transportOpts;
    std::vector<PolicyDecision> log;
    double lossEwma = 0.0;
    double retransEwma = 0.0;
    double rttEwma = 0.0;
    bool haveLoss = false;
    int cooldown = 0;
    int switches = 0;
    std::uint64_t lastRerouted = 0;
    std::uint64_t unCheckpointedWords = 0;
};

/**
 * Round-slicing helpers: execute a CommOp in block-aligned word
 * slices so the controller gets round boundaries to act on.
 * sliceAlignment is the word granularity flow offsets must respect
 * (the lcm of the walks' strided block sizes); sliceFlow cuts
 * [offset, offset + words) out of a flow by offsetting its walks.
 */
std::uint64_t sliceAlignment(const Flow &flow);
Flow sliceFlow(const Flow &flow, std::uint64_t offset,
               std::uint64_t words);

/** Outcome of an adaptive multi-round execution. */
struct AdaptiveResult
{
    Cycles makespan = 0;
    Bytes payloadBytes = 0;
    int rounds = 0;
    int styleSwitches = 0;
    int transportAdaptations = 0;
    int forcedCheckpoints = 0;
    std::string finalStyle;
    std::uint64_t fingerprint = 0;
    /** Mismatched words at final verification (0 = success). */
    std::uint64_t corruptWords = 0;
    /** Flows excluded from verification (dead endpoint). */
    int skippedFlows = 0;
    bool degraded = false;
    std::vector<PolicyDecision> decisions;
};

/**
 * Execute @p op in @p rounds block-aligned slices under closed-loop
 * control: each round runs the controller's current style behind the
 * reliable transport, then the registry sample is fed back and the
 * controller may flip the style or retune the transport for the next
 * round. Decision points are emitted as cat "policy" tracer instants.
 * Sources are seeded once up front and the whole op is verified at
 * the end (flows with a dead endpoint excluded). Runs serially: the
 * reliable transport's retransmit timers are not window-safe.
 */
AdaptiveResult runAdaptiveExchange(sim::Machine &machine,
                                   const CommOp &op,
                                   ResilienceController &controller,
                                   int rounds);

} // namespace ct::rt

#endif // CT_RT_RESILIENCE_H
