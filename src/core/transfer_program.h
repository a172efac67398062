/**
 * @file
 * The TransferProgram IR: the single source of truth for how an xQy
 * communication operation is implemented.
 *
 * A program is the paper's composition formula (§3.3) made explicit:
 * a data-flow-ordered list of basic-transfer *stages*, each bound to
 * the hardware resource that executes it (sender processor, sender
 * DMA engine, wire, receiver deposit engine, receiver processor /
 * co-processor) and to the buffers it reads and writes. The stage
 * list is the program's only view: its formula, its pattern check and
 * its steady-state rating all read the stages as copies in sequence
 * around one parallel network leg (StageFormula).
 *
 * Two backends consume a program:
 *  - core::AnalyticBackend rates it with the copy-transfer model
 *    (steady-state algebra, the latency extension, and an
 *    execution-aware resource-grouped predictor);
 *  - rt::SimBackend lowers its stages onto the simulator's engines
 *    and event queue and actually moves the data.
 *
 * Programs are built by style builders registered in one place
 * (style_registry.h); nothing outside the registry switches on
 * core::Style.
 */

#ifndef CT_CORE_TRANSFER_PROGRAM_H
#define CT_CORE_TRANSFER_PROGRAM_H

#include <optional>
#include <ranges>
#include <span>
#include <string>
#include <vector>

#include "core/algebra.h"
#include "core/machine_params.h"
#include "core/style.h"

namespace ct::core {

/** Hardware resource a program stage is bound to. */
enum class StageResource {
    SenderCpu,      ///< main processor on the sending node
    SenderEngine,   ///< autonomous DMA/fetch engine on the sender
    Wire,           ///< the interconnect
    ReceiverEngine, ///< deposit engine on the receiving node
    ReceiverCpu,    ///< main processor or co-processor on the receiver
};

/** Display name, e.g. "sender-cpu". */
std::string resourceName(StageResource resource);

/** Buffer/endpoint a stage reads from or writes into. */
enum class BufferBinding {
    SourceArray,          ///< user source array (pattern x)
    PackBuffer,           ///< sender-side contiguous packing buffer
    SenderSystemBuffer,   ///< extra sender system buffer (PVM)
    NetworkPort,          ///< network-interface FIFO
    ReceiverSystemBuffer, ///< extra receiver system buffer (PVM)
    ReceiveBuffer,        ///< receiver-side contiguous landing buffer
    DestArray,            ///< user destination array (pattern y)
};

/** Display name, e.g. "pack-buffer". */
std::string bufferName(BufferBinding buffer);

/** One stage: a basic transfer bound to a resource and two buffers. */
struct ProgramStage
{
    BasicTransfer transfer;
    StageResource resource = StageResource::SenderCpu;
    BufferBinding from = BufferBinding::SourceArray;
    BufferBinding to = BufferBinding::NetworkPort;
    /**
     * True for the sender-side remote-address stream of chained
     * transfers with an indexed destination (the sender loads the
     * index vector to generate address-data pairs). Not a throughput-
     * table row; the execution predictor rates it at the machine's
     * load-only bandwidth. The formula leaves it out (the paper
     * folds address generation into xS0).
     */
    bool addressCompute = false;
};

/**
 * A stage list read as the paper's formula (§3.3): copies in sequence
 * around one parallel network leg, as in xC1 o (1S0 || Nd || 0D1) o
 * 1Cy. The leg is the stages that read or write the network port.
 * addressCompute stages are not basic transfers of the formula: they
 * split nothing, and legStages() skips them. A program that is all
 * leg (chained, dma-direct) has no copies; one without a port stage
 * is all copies, kept in `before`.
 */
struct StageFormula
{
    /** Copies ahead of the leg, in data-flow order. */
    std::span<const ProgramStage> before;
    /** From the first to the last leg stage; read it through
     *  legStages(). */
    std::span<const ProgramStage> leg;
    /** Copies behind the leg. */
    std::span<const ProgramStage> after;

    /** The leg's formula stages, addressCompute stages skipped. */
    auto legStages() const
    {
        return leg | std::views::filter([](const ProgramStage &s) {
                   return !s.addressCompute;
               });
    }
};

/**
 * Split @p stages into a StageFormula in one pass, without
 * allocating. nullopt when they do not have that shape: a copy
 * between two leg stages, or an addressCompute stage among the
 * copies.
 */
std::optional<StageFormula>
stageFormula(std::span<const ProgramStage> stages);

/** Fixed per-message/per-step software costs of a style. */
struct SoftwareCosts
{
    /** Sender-side per-message cost (library call / flow setup). */
    util::Cycles senderStartup = 0;
    /** Receiver-side per-message cost. */
    util::Cycles receiverStartup = 0;
    /** End-of-step cost (barrier, cache invalidation). */
    util::Cycles stepSync = 0;

    /** Total per-message startup charge of the latency model. */
    util::Cycles startup() const
    {
        return senderStartup + receiverStartup;
    }
};

/**
 * A complete implementation program for xQy on one machine.
 *
 * `stages` binds each basic transfer to a resource and two buffers,
 * in data-flow order from source array to destination array. It is
 * the only view of the plan: the formula, the pattern check and the
 * analytic rating are derived from it (StageFormula).
 */
struct TransferProgram
{
    Style style = Style::BufferPacking;
    /** Registry key and display/layer name, e.g. "chained". */
    std::string styleKey;
    MachineId machine = MachineId::T3d;
    AccessPattern x, y;

    std::vector<ProgramStage> stages;
    std::vector<ResourceConstraint> constraints;
    SoftwareCosts costs;

    /**
     * Copies through staging buffers per endpoint: 0 for direct
     * styles (chained, DMA), 1 for buffer packing, 2 for PVM's
     * packing + system buffer. Determines the lowering shape.
     */
    int stagingBuffers = 0;

    /** Wrapped by the reliable transport (see withReliability()). */
    bool reliable = false;

    /** The stages' formula, e.g. "1C1 o (1F0 || Nd || 0D1) o 1C64":
     *  copies joined by `o`, leg stages by `||`, and the leg in
     *  parentheses when it has more than one stage and copies
     *  surround it. */
    std::string format() const;

    /** Multi-line pretty-print: formula plus the stage table with
     *  resource and buffer bindings and the software costs. */
    std::string describe() const;

    /**
     * Check the stages against the formula's shape and its
     * pattern-handoff rule, in one pass: each part of the sequence
     * (a copy, or the leg as a whole) must write memory with the
     * pattern the next part reads it with, wherever both touch
     * memory. The leg reads with its first stage that does and
     * writes with its last. Returns an error message, or nullopt
     * when the program is well formed. buildProgram() runs it on
     * every build.
     */
    std::optional<std::string> validate() const;

    /** First stage bound to @p resource, or nullptr. */
    const ProgramStage *stageOn(StageResource resource) const;
};

/**
 * Fraction of a stage's memory-load stream that is contiguous and
 * cacheable (line fills): 1 for contiguous data loads, 0.5 for an
 * indexed gather (contiguous index stream + random data lines), 0
 * for strided loads (latency-bound, pipelined) and for port-fed
 * stages unless they load an index vector. On a shared-bus machine
 * this is the fraction of processor work that serializes with
 * engine bus bursts instead of overlapping them (paper §5.1.4).
 */
double stageLoadSigma(const ProgramStage &stage);

/**
 * Program transform: the same program behind the reliable transport
 * (per-packet sequencing/CRC/ack/retransmit, degradation to the
 * packing program on permanent engine failure). Consumed by
 * rt::SimBackend; the analytic view is unchanged (the transport is
 * software overhead, not a basic transfer).
 */
TransferProgram withReliability(TransferProgram program);

} // namespace ct::core

#endif // CT_CORE_TRANSFER_PROGRAM_H
