#include "machine.h"

#include <cmath>

#include "sweep/farm.h"
#include "util/logging.h"

namespace ct::sim {

std::string
machineConfigError(const MachineConfig &config)
{
    auto bad = [&](const auto &...what) {
        return util::detail::concat("MachineConfig '", config.name,
                                    "': ", what...);
    };
    if (config.clockHz <= 0.0 || !std::isfinite(config.clockHz))
        return bad("clockHz must be a positive finite number, got ",
                   config.clockHz);
    if (config.topology.dims.empty())
        return bad("topology needs at least one dimension");
    for (int d : config.topology.dims)
        if (d < 1)
            return bad("topology dimension must be >= 1, got ", d);
    if (config.topology.nodesPerPort < 1)
        return bad("nodesPerPort must be >= 1, got ",
                   config.topology.nodesPerPort);
    if (config.network.wireBytesPerCycle <= 0.0 ||
        !std::isfinite(config.network.wireBytesPerCycle))
        return bad("network wireBytesPerCycle must be a positive "
                   "finite number, got ",
                   config.network.wireBytesPerCycle);
    if (config.network.adpBytesPerWord < 8)
        return bad("network adpBytesPerWord must cover the 8 data "
                   "bytes of a word, got ",
                   config.network.adpBytesPerWord);
    if (config.node.ramBytes == 0)
        return bad("node ramBytes must be positive");
    if (config.threads < 0 || config.threads > sweep::kMaxThreads)
        return bad("threads must be in [0, ", sweep::kMaxThreads,
                   "], got ", config.threads);

    // Outage targets must exist on this machine's topology.
    const FaultSpec &f = config.faults;
    const ChaosSchedule &c = config.chaos;
    if (f.linkDown.empty() && f.nodeDown.empty() &&
        c.cascades.empty() && c.flaps.empty())
        return "";
    Topology topo(config.topology);
    for (const FaultSpec::Outage &o : f.linkDown)
        if (o.id < 0 || o.id >= topo.linkCount())
            return bad("link_down: bad link ", o.id, " (have ",
                       topo.linkCount(), ")");
    for (const FaultSpec::Outage &o : f.nodeDown)
        if (o.id < 0 || o.id >= topo.nodeCount())
            return bad("node_down: bad node ", o.id, " (have ",
                       topo.nodeCount(), ")");
    // Chaos draws victims without replacement (applyOutages).
    auto victims = [&](const auto &items, const char *verb) {
        for (const auto &item : items) {
            int space =
                item.nodes ? topo.nodeCount() : topo.networkLinkCount();
            if (item.count > space)
                return bad(item.nodes ? "node " : "link ", verb,
                           " wants ", item.count,
                           " victims but the machine only has ", space);
        }
        return std::string();
    };
    std::string why = victims(c.cascades, "cascade");
    return why.empty() ? victims(c.flaps, "flap") : why;
}

namespace {

/** @p config, after a fatal() if machineConfigError rejects it. */
const MachineConfig &
validated(const MachineConfig &config)
{
    if (std::string error = machineConfigError(config); !error.empty())
        util::fatal(error);
    return config;
}

} // namespace

Machine::Machine(const MachineConfig &config)
    : cfg(validated(config)),
      topo(cfg.topology),
      injector(cfg.faults.any() || !cfg.chaos.phases.empty()
                   ? std::make_unique<FaultInjector>(cfg.faults,
                                                     &metricsReg)
                   : nullptr),
      net(cfg.network, topo, queue, &metricsReg)
{
    net.setFaults(injector.get());
    if (injector && !cfg.chaos.phases.empty())
        injector->setChaos(&cfg.chaos, &queue);
    // Apply scheduled topology outages from the fault spec (their
    // IDs were checked by machineConfigError).
    for (const FaultSpec::Outage &o : cfg.faults.linkDown)
        topo.downLink(o.id, o.at);
    for (const FaultSpec::Outage &o : cfg.faults.nodeDown)
        topo.downNode(o.id, o.at);
    // Chaos outage timelines (cascades, flaps) draw their victims
    // from the schedule's seed stream.
    cfg.chaos.applyOutages(topo);
    nodes.reserve(static_cast<std::size_t>(topo.nodeCount()));
    for (int i = 0; i < topo.nodeCount(); ++i) {
        nodes.push_back(std::make_unique<Node>(cfg.node));
        nodes.back()->depositEngine().setFaults(injector.get());
        nodes.back()->fetchEngine().setFaults(injector.get());
    }
    // Conservative lookahead floor from the wire model: even a
    // zero-payload packet serializes its header and crosses at least
    // one router hop, so no cross-node interaction is faster than
    // this. Layers may pass a larger true delay via
    // setParallelLookahead(); it is clamped to this ceiling.
    netLookahead = static_cast<Cycles>(std::ceil(
                       static_cast<double>(cfg.network.headerBytes) /
                       cfg.network.wireBytesPerCycle)) +
                   cfg.network.hopLatencyCycles;
    if (netLookahead < 1)
        netLookahead = 1;
    // Faulted/chaos machines stay serial: fault rolls consume a
    // shared RNG stream in event order, which a parallel window
    // cannot reproduce without serializing anyway.
    if (cfg.threads > 1 && !injector && topo.nodeCount() > 1) {
        ParallelOptions popts;
        popts.threads = cfg.threads;
        popts.lookahead = 1;
        engine = std::make_unique<ParallelEngine>(queue, popts);
    }
    wireRunner();
}

void
Machine::wireRunner()
{
    bool enabled = engine && parallelAllowed && !tracerPtr;
    queue.setRunner(enabled ? engine.get() : nullptr);
}

void
Machine::setParallelEnabled(bool enabled)
{
    parallelAllowed = enabled;
    wireRunner();
}

void
Machine::setParallelLookahead(Cycles hint)
{
    if (engine)
        engine->setLookahead(hint, netLookahead);
}

void
Machine::setTracer(obs::Tracer *t)
{
    tracerPtr = t;
    // Trace emission is keyed to callback execution order, which a
    // window executes out of order; tracing forces the serial path
    // (and detaching the tracer restores the engine).
    wireRunner();
    net.setTracer(t);
    if (!t)
        return;
    static const char *const unit_names[kTraceTracksPerNode] = {
        "cpu", "coproc", "deposit", "fetch", "net"};
    for (int n = 0; n < nodeCount(); ++n)
        for (std::int32_t u = 0; u < kTraceTracksPerNode; ++u)
            t->setTrackName(
                traceTrack(n, static_cast<TraceTrack>(u)),
                "node" + std::to_string(n) + " " + unit_names[u]);
    t->setTrackName(opTrack(), "machine");
}

Node &
Machine::node(NodeId id)
{
    if (id < 0 || id >= nodeCount())
        util::fatal("Machine::node: bad id ", id);
    return *nodes[static_cast<std::size_t>(id)];
}

util::MBps
Machine::toMBps(Bytes bytes, Cycles cycles) const
{
    return util::toMBps(bytes, cycles, cfg.clockHz);
}

NodeConfig
t3dNodeConfig()
{
    NodeConfig node;
    node.ramBytes = 64ull << 20;
    node.ramAllocSkew = 1056; // avoid direct-mapped set aliasing

    // 8 KB direct-mapped on-chip cache, 32-byte lines, write-around.
    node.memory.cache = {8192, 32, 1, WritePolicy::WriteAround, false};
    node.memory.dram = {2048, 1, 2048, 14, 24, 7, 16, 8, 1};
    node.memory.writeBuffer = {6, true, 32, 4};
    node.memory.readAhead = {true, 32, 3};
    node.memory.loadPipeline = {false, 0, 0};
    node.memory.bus = {0, 0}; // private path, not a shared bus
    node.memory.cacheHitCycles = 1;
    node.memory.missOverheadCycles = 5;
    node.memory.storeIssueCycles = 3;

    node.processor = {2, 5, 4};
    node.hasCoProcessor = false;

    // The annex handles every pattern via address-data pairs.
    node.deposit = {true, true, 8.4, 22.0, 10};
    node.fetch = {false, 0.0, 0, 4096, 0};
    return node;
}

NodeConfig
paragonNodeConfig()
{
    NodeConfig node;
    node.ramBytes = 64ull << 20;
    node.ramAllocSkew = 9760; // stagger arrays across DRAM banks

    // 16 KB 4-way on-chip cache, 32-byte lines; SUNMOS runs the
    // caches write-through.
    node.memory.cache = {16384, 32, 4, WritePolicy::WriteThrough,
                         false};
    node.memory.dram = {256, 8, 8192, 2, 10, 8, 12, 8, 1};
    node.memory.writeBuffer = {3, true, 32, 2};
    node.memory.readAhead = {false, 32, 3};
    // Pipelined loads (pfld) bypassing the cache.
    node.memory.loadPipeline = {true, 3, 2};
    node.memory.bus = {8, 4}; // 400 MB/s at 50 MHz, arb penalty 4
    node.memory.cacheHitCycles = 1;
    node.memory.missOverheadCycles = 2;
    node.memory.storeIssueCycles = 1;

    node.processor = {1, 6, 2};
    node.hasCoProcessor = true;
    node.coProcessor = {1, 6, 2};

    // The DMA deposits contiguous blocks only.
    node.deposit = {true, false, 2.5, 0.0, 20};
    node.fetch = {true, 3.2, 50, 4096, 30};
    return node;
}

MachineConfig
t3dConfig(std::vector<int> dims)
{
    MachineConfig cfg;
    cfg.name = "T3D";
    cfg.id = core::MachineId::T3d;
    cfg.clockHz = 150e6;
    cfg.topology.dims = std::move(dims);
    cfg.topology.torus = true;
    cfg.topology.nodesPerPort = 2; // two PEs share a network port
    cfg.network = {1.0, 16, 15, 2};
    cfg.node = t3dNodeConfig();
    return cfg;
}

MachineConfig
paragonConfig(std::vector<int> dims)
{
    MachineConfig cfg;
    cfg.name = "Paragon";
    cfg.id = core::MachineId::Paragon;
    cfg.clockHz = 50e6;
    cfg.topology.dims = std::move(dims);
    cfg.topology.torus = false;
    cfg.topology.nodesPerPort = 1;
    cfg.network = {3.6, 16, 16, 2};
    cfg.node = paragonNodeConfig();
    return cfg;
}

MachineConfig
configFor(core::MachineId id)
{
    switch (id) {
      case core::MachineId::T3d:
        return t3dConfig();
      case core::MachineId::Paragon:
        return paragonConfig();
    }
    util::panic("configFor: bad machine id");
}

bool
validScaleNodes(int nodes)
{
    return nodes >= 8 && nodes <= 8192 &&
           (nodes & (nodes - 1)) == 0;
}

std::vector<int>
dimsForNodes(core::MachineId id, int nodes)
{
    if (!validScaleNodes(nodes))
        util::fatal("dimsForNodes: node count ", nodes,
                    " must be a power of two in [8, 8192]");
    int log2 = 0;
    while ((1 << (log2 + 1)) <= nodes)
        ++log2;
    // Split the exponent as evenly as possible across the machine's
    // dimensionality, larger radices first, so the partition stays
    // near-cubic (T3D) / near-square (Paragon) as it grows.
    int rank = id == core::MachineId::T3d ? 3 : 2;
    std::vector<int> dims;
    for (int remaining = rank; remaining > 0; --remaining) {
        int exp = (log2 + remaining - 1) / remaining;
        dims.push_back(1 << exp);
        log2 -= exp;
    }
    return dims;
}

MachineConfig
configFor(core::MachineId id, int nodes)
{
    MachineConfig cfg = configFor(id);
    cfg.topology.dims = dimsForNodes(id, nodes);
    return cfg;
}

} // namespace ct::sim
