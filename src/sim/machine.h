/**
 * @file
 * A whole parallel machine: nodes, topology, interconnect and the
 * shared event queue, plus the calibrated configurations of the two
 * machines studied in the paper.
 *
 * Calibration targets are the basic-transfer throughputs the paper
 * measured (Tables 1-4); EXPERIMENTS.md reports the achieved values
 * side by side with the paper's.
 */

#ifndef CT_SIM_MACHINE_H
#define CT_SIM_MACHINE_H

#include <memory>
#include <string>
#include <vector>

#include "core/machine_params.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/chaos.h"
#include "sim/fault.h"
#include "sim/network.h"
#include "sim/node.h"
#include "sim/parallel.h"
#include "sim/trace_tracks.h"

namespace ct::sim {

/** Full machine description. */
struct MachineConfig
{
    std::string name = "machine";
    core::MachineId id = core::MachineId::T3d;
    double clockHz = 150e6;
    TopologyConfig topology;
    NetworkConfig network;
    NodeConfig node;
    /** Fault-injection spec; the default injects nothing. */
    FaultSpec faults;
    /** Chaos campaign layered on top; the default schedules nothing.
     *  Rate phases add to the spec's static rates; cascades and
     *  flaps become topology outages at machine construction. */
    ChaosSchedule chaos;
    /**
     * Worker threads for conservative parallel execution of this
     * machine's event timeline (sim::ParallelEngine). 0 or 1 keeps
     * today's serial engine with zero overhead; results are
     * byte-identical at every value. Machines with faults or chaos
     * always run serially: fault rolls consume a shared deterministic
     * RNG stream whose draw order *is* the event order.
     */
    int threads = 0;
};

/**
 * Sanity-check a machine configuration, with clear error messages
 * instead of silent NaNs or divide-by-zero downstream: the first
 * violation, empty when the config is sound. Outage targets count:
 * link_down/node_down ids and cascade/flap victim counts must exist
 * on the topology. The Machine constructor fatal()s on a violation;
 * tools call this first to refuse user input without dying.
 */
std::string machineConfigError(const MachineConfig &config);

/** Nodes + network, ready to run communication operations. */
class Machine
{
  public:
    explicit Machine(const MachineConfig &config);

    int nodeCount() const { return topo.nodeCount(); }
    Node &node(NodeId id);

    EventQueue &events() { return queue; }
    Network &network() { return net; }
    Topology &topology() { return topo; }
    const Topology &topology() const { return topo; }
    const MachineConfig &config() const { return cfg; }

    /** Fault injector, or nullptr when the machine is fault-free. */
    FaultInjector *faults() { return injector.get(); }
    const FaultInjector *faults() const { return injector.get(); }

    /** Registry hosting every component's metrics. */
    obs::MetricsRegistry &metrics() { return metricsReg; }
    const obs::MetricsRegistry &metrics() const { return metricsReg; }

    /**
     * Attach (or with nullptr detach) a tracer. Labels every track
     * and forwards the tracer to the network; the runtime layers pick
     * it up through tracer(). Tracing off means a null pointer check
     * per emission site and nothing else.
     */
    void setTracer(obs::Tracer *t);
    obs::Tracer *tracer() const { return tracerPtr; }

    /** Machine-scope track (whole-operation spans). */
    std::int32_t opTrack() const
    {
        return machineTraceTrack(nodeCount());
    }

    /** Payload throughput of @p bytes moved in @p cycles. */
    util::MBps toMBps(Bytes bytes, Cycles cycles) const;

    /**
     * Gate the parallel engine on or off for subsequent runs (no-op
     * when the machine has none). Layers that are not parallel-safe
     * (rt::ReliableLayer's cancellable timers) disable it before
     * driving the queue; tracing disables it implicitly because
     * trace emission is keyed to callback execution order.
     */
    void setParallelEnabled(bool enabled);

    /**
     * Tighten the engine's window span to a layer's declared minimum
     * cross-partition delay, clamped to [1, network lookahead].
     */
    void setParallelLookahead(Cycles hint);

    /** The engine, or nullptr when cfg.threads <= 1 / faults. */
    const ParallelEngine *parallelEngine() const
    {
        return engine.get();
    }

    /** Conservative lookahead floor from the wire model: no packet
     *  crosses nodes faster than header serialization + one hop. */
    Cycles networkLookahead() const { return netLookahead; }

  private:
    void wireRunner();

    MachineConfig cfg;
    Topology topo;
    /** Declared before the queue: window-spawned event nodes live in
     *  engine-owned slabs, so the queue's heap must die first. */
    std::unique_ptr<ParallelEngine> engine;
    EventQueue queue;
    /** Declared before the components that register metrics in it. */
    obs::MetricsRegistry metricsReg;
    obs::Tracer *tracerPtr = nullptr;
    std::unique_ptr<FaultInjector> injector;
    Network net;
    std::vector<std::unique_ptr<Node>> nodes;
    Cycles netLookahead = 1;
    bool parallelAllowed = true;
};

/** Node configuration calibrated to the Cray T3D (§3.5.1). */
NodeConfig t3dNodeConfig();

/** Node configuration calibrated to the Intel Paragon (§3.5.2). */
NodeConfig paragonNodeConfig();

/**
 * A T3D partition: 3-D torus, two PEs per network port, 150 MHz
 * Alpha EV4 nodes. @p dims must multiply to the node count.
 */
MachineConfig t3dConfig(std::vector<int> dims = {2, 2, 2});

/** A Paragon partition: 2-D mesh, 50 MHz dual-i860XP nodes. */
MachineConfig paragonConfig(std::vector<int> dims = {4, 2});

/** Build the configuration for a machine id with default dims. */
MachineConfig configFor(core::MachineId id);

/**
 * True when @p nodes is a machine size the scaled configurations
 * support: a power of two in [8, 8192].
 */
bool validScaleNodes(int nodes);

/**
 * Near-balanced power-of-two dims for a @p nodes-node partition of
 * machine @p id: three dimensions for the T3D's torus (largest radix
 * first), two for the Paragon's mesh. fatal()s unless
 * validScaleNodes(nodes).
 */
std::vector<int> dimsForNodes(core::MachineId id, int nodes);

/** configFor() with the topology scaled to @p nodes nodes. */
MachineConfig configFor(core::MachineId id, int nodes);

} // namespace ct::sim

#endif // CT_SIM_MACHINE_H
