/**
 * @file
 * The simulation backend: lowers a core::TransferProgram onto the
 * simulator's message layers and actually moves the data.
 *
 * Lowering is driven by the program's *shape*, not its style tag:
 * programs that stage through packing buffers (stagingBuffers >= 1)
 * become a PackingLayer (with PVM's extra system-buffer copies when
 * stagingBuffers >= 2); direct programs become a ChainedLayer, in
 * DMA-feed mode when the program runs a fetch engine on the sender.
 * The program's software costs flow straight into the layer options,
 * so the analytic latency model and the simulator charge the same
 * constants by construction. Reliable programs are wrapped in the
 * ReliableLayer transport.
 *
 * The only driver of a single-shot simulated exchange (ctplan sim,
 * the service, sweep cells, crossValidate), outage rule included.
 */

#ifndef CT_RT_SIM_BACKEND_H
#define CT_RT_SIM_BACKEND_H

#include <memory>

#include "core/analytic_backend.h"
#include "core/transfer_program.h"
#include "rt/layer.h"
#include "rt/reliable_layer.h"

namespace ct::rt {

/**
 * Derive the analytic backend's execution profile (clock, shared
 * bus, chunking, DMA setup cost, index-stream rate) from a simulator
 * machine configuration, so model and simulator describe the same
 * hardware.
 */
core::ExecutionProfile
executionProfileFor(const sim::MachineConfig &cfg);

/**
 * Lower @p program onto a concrete message layer (see file comment).
 * The returned layer is reusable across runs on fresh machines.
 */
std::unique_ptr<MessageLayer>
lowerProgram(const core::TransferProgram &program);

/** rt::exchangeFitError() for a pairExchange() run by @p program:
 *  its staging rings, plus a reliable program's packing fallback. */
std::string exchangeFitError(const sim::MachineConfig &cfg,
                             const core::TransferProgram &program,
                             std::uint64_t words);

/** Outcome of one backend execution, with the rates resolved. */
struct SimRun
{
    RunResult result;
    util::MBps perNodeMBps = 0.0;
    util::MBps totalMBps = 0.0;
    /** Words that arrived with the wrong value (0 = verified). */
    std::uint64_t corruptWords = 0;
    /** Words of flows with a dead endpoint: lost, not verified. */
    std::uint64_t lostWords = 0;
    /** Transport counters of a reliable program (zero otherwise). */
    ReliableStats transport;
    std::string layerName;
    /**
     * True when the run hit the cooperative event budget and was cut
     * short: makespan/rates describe the progress made up to the cut
     * and delivery was NOT verified (partial delivery is a deadline
     * artifact, not corruption). Callers surfacing truncated runs
     * must label them as such (the planning service reports
     * fidelity "truncated").
     */
    bool truncated = false;
    /** Events the simulation executed (the budget spent). */
    std::uint64_t eventsExecuted = 0;
};

/** Executes TransferPrograms on one simulated machine model. */
class SimBackend
{
  public:
    explicit SimBackend(sim::MachineConfig config);

    /**
     * One-directional run: node 0 sends @p words elements to node 1
     * with the program's patterns (the validation-cell setup).
     */
    SimRun execute(const core::TransferProgram &program,
                   std::uint64_t words, std::uint64_t seed = 42);

    /**
     * Pairwise exchange across all nodes, every node sending and
     * receiving (the paper's measurement setup).
     */
    SimRun exchange(const core::TransferProgram &program,
                    std::uint64_t words, std::uint64_t seed = 42);

    /** exchange() on a fresh machine the caller built from config()
     *  and reads afterwards (tracer, metrics, topology, engine). */
    SimRun exchangeOn(sim::Machine &machine,
                      const core::TransferProgram &program,
                      std::uint64_t words, std::uint64_t seed = 42);

    const sim::MachineConfig &config() const { return cfg; }

    /**
     * Cooperative cancellation checkpoint for deadline-bound
     * callers: cap the total simulator events one execute()/
     * exchange() may fire. When the budget runs out mid-run the
     * event loop stops at the next checkpoint, the run comes back
     * with truncated = true, and its numbers describe the progress
     * made so far. 0 (the default) means unlimited.
     */
    void setEventBudget(std::uint64_t budget) { eventBudget = budget; }

    /**
     * Worker threads for the conservative parallel engine. 0 or 1
     * keeps the serial event loop with zero overhead; N > 1 runs
     * partitioned windows that commit in serial order, so reports
     * and metrics stay byte-identical to the serial run. Layers that
     * are not parallel-safe (e.g. the reliable transport) and
     * budget-capped runs fall back to serial automatically.
     */
    void setThreads(int n) { cfg.threads = n; }
    int threads() const { return cfg.threads; }

  private:
    SimRun run(const core::TransferProgram &program, CommOp op,
               sim::Machine &machine);

    sim::MachineConfig cfg;
    std::uint64_t eventBudget = 0;
};

} // namespace ct::rt

#endif // CT_RT_SIM_BACKEND_H
