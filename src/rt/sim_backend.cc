#include "sim_backend.h"

#include "core/machine_params.h"
#include "rt/chained_layer.h"
#include "rt/packing_layer.h"
#include "rt/workload.h"
#include "util/logging.h"

namespace ct::rt {

core::ExecutionProfile
executionProfileFor(const sim::MachineConfig &cfg)
{
    core::ExecutionProfile profile;
    profile.clockHz = cfg.clockHz;
    profile.sharedBus = cfg.node.memory.bus.bytesPerCycle > 0;
    profile.chunkWords = layerChunkWords;
    profile.dmaChunkSetupCycles =
        cfg.node.fetch.enabled ? cfg.node.fetch.setupCycles : 0;
    profile.indexStreamMBps =
        core::paperCaps(cfg.id).loadOnlyBandwidth;
    return profile;
}

std::unique_ptr<MessageLayer>
lowerProgram(const core::TransferProgram &program)
{
    std::unique_ptr<MessageLayer> layer;
    if (program.stagingBuffers >= 1) {
        PackingOptions opts;
        opts.systemBufferCopies = program.stagingBuffers >= 2;
        opts.senderMessageOverhead = program.costs.senderStartup;
        opts.receiverMessageOverhead = program.costs.receiverStartup;
        opts.stepSyncCycles = program.costs.stepSync;
        opts.layerName = program.styleKey;
        layer = std::make_unique<PackingLayer>(std::move(opts));
    } else {
        ChainedOptions opts;
        opts.flowSetupOverhead = program.costs.startup();
        opts.stepSyncCycles = program.costs.stepSync;
        // A sender-engine stage means the program feeds the wire
        // from the DMA fetch engine (dma-direct) instead of
        // processor loads.
        opts.dmaFeed =
            program.stageOn(core::StageResource::SenderEngine) !=
            nullptr;
        layer = std::make_unique<ChainedLayer>(opts);
    }
    if (program.reliable)
        layer = std::make_unique<ReliableLayer>(std::move(layer));
    return layer;
}

std::string
exchangeFitError(const sim::MachineConfig &cfg,
                 const core::TransferProgram &program,
                 std::uint64_t words)
{
    return exchangeFitError(cfg, program.x, program.y, words,
                            {program.stagingBuffers, program.reliable});
}

SimBackend::SimBackend(sim::MachineConfig config)
    : cfg(std::move(config))
{}

SimRun
SimBackend::run(const core::TransferProgram &program, CommOp op,
                sim::Machine &machine)
{
    SimRun out;
    const sim::Topology &topo = machine.topology();
    out.lostWords = dropDeadFlows(op, topo, 0);
    seedSources(machine, op);
    if (eventBudget > 0)
        machine.events().setEventBudget(eventBudget);
    std::unique_ptr<MessageLayer> layer = lowerProgram(program);
    machine.setParallelEnabled(layer->parallelSafe());
    machine.setParallelLookahead(layer->parallelLookahead(machine, op));
    out.layerName = layer->name();
    out.result = layer->run(machine, op);
    if (auto *reliable = dynamic_cast<ReliableLayer *>(layer.get()))
        out.transport = reliable->stats();
    out.truncated = machine.events().truncated();
    out.eventsExecuted = machine.events().eventsExecuted();
    out.lostWords += dropDeadFlows(op, topo, machine.events().now());
    // A budget cut leaves flows legitimately half-delivered;
    // verifying would misreport the missing tail as corruption.
    out.corruptWords = out.truncated ? 0 : verifyDelivery(machine, op);
    out.perNodeMBps = out.result.perNodeMBps(machine);
    out.totalMBps = out.result.totalMBps(machine);
    return out;
}

SimRun
SimBackend::execute(const core::TransferProgram &program,
                    std::uint64_t words, std::uint64_t seed)
{
    sim::Machine machine(cfg);
    util::Rng rng(seed);
    CommOp op;
    op.name = program.styleKey;
    op.flows.push_back(
        makeFlow(machine, 0, 1, program.x, program.y, words, rng));
    return run(program, std::move(op), machine);
}

SimRun
SimBackend::exchange(const core::TransferProgram &program,
                     std::uint64_t words, std::uint64_t seed)
{
    sim::Machine machine(cfg);
    return exchangeOn(machine, program, words, seed);
}

SimRun
SimBackend::exchangeOn(sim::Machine &machine,
                       const core::TransferProgram &program,
                       std::uint64_t words, std::uint64_t seed)
{
    CommOp op =
        pairExchange(machine, program.x, program.y, words, seed);
    return run(program, std::move(op), machine);
}

} // namespace ct::rt
