/**
 * @file
 * Latency-extended cost model. The paper's copy-transfer model is
 * deliberately throughput-only (§3.1), and its §6.2 results show
 * where that breaks: the chained model predicts 68 MB/s for the SOR
 * exchange but the measured rate is 28, because 2 KB messages are
 * dominated by fixed per-message software costs, not bandwidth.
 *
 * This extension adds the missing first-order term:
 *
 *     T(n) = startup + n / asymptotic_throughput
 *
 * with the startup charge taken from the same software costs the
 * runtime layers model (partner switch / library call, end-of-step
 * synchronization). It predicts message-size-dependent throughput
 * (the curves of Figure 1) and the half-power point n_1/2.
 */

#ifndef CT_CORE_LATENCY_MODEL_H
#define CT_CORE_LATENCY_MODEL_H

#include "util/units.h"

namespace ct::core {

/**
 * Throughput as a function of message size for one program;
 * AnalyticBackend::costModel() builds it from the program's rate and
 * software costs.
 */
class MessageCostModel
{
  public:
    /**
     * @param asymptotic_mbps steady-state throughput (from the
     *        copy-transfer model)
     * @param startup_cycles fixed per-message software cost
     * @param sync_cycles per-step cost charged once per exchange
     * @param clock_hz node clock for converting cycles to time
     */
    MessageCostModel(util::MBps asymptotic_mbps,
                     util::Cycles startup_cycles,
                     util::Cycles sync_cycles, double clock_hz);

    /** Predicted transfer time for one message of @p bytes. */
    double secondsFor(util::Bytes bytes) const;

    /** Effective throughput at message size @p bytes. */
    util::MBps throughputAt(util::Bytes bytes) const;

    /**
     * The half-power point: the message size at which effective
     * throughput reaches half the asymptotic rate.
     */
    util::Bytes halfPowerPoint() const;

    util::MBps asymptotic() const { return peak; }

  private:
    util::MBps peak;
    double startupSeconds;
    double syncSeconds;
};

} // namespace ct::core

#endif // CT_CORE_LATENCY_MODEL_H
