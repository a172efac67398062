/**
 * @file
 * Generic workload builders: allocate pattern walks in node memories
 * and assemble simple CommOps (pairwise exchanges of a given xQy)
 * used by tests and the basic-operation benchmarks (Figures 7/8,
 * Table 5).
 */

#ifndef CT_RT_WORKLOAD_H
#define CT_RT_WORKLOAD_H

#include "core/pattern.h"
#include "rt/comm_op.h"
#include "util/rng.h"

namespace ct::rt {

/**
 * The node-memory allocations of one walk of @p words elements with
 * pattern @p p: the element array and, for an indexed walk, the index
 * array. Sizes saturate at the largest Bytes value instead of
 * wrapping, so a huge word count never looks small.
 */
struct WalkBytes
{
    sim::Bytes elements = 0;
    sim::Bytes index = 0; ///< 0 unless the pattern is indexed
};

WalkBytes walkBytes(core::AccessPattern p, std::uint64_t words);

/**
 * Allocate a walk of @p words elements with pattern @p p in @p node's
 * memory, sized by walkBytes(). Indexed walks get a fresh random
 * permutation index array.
 */
sim::PatternWalk allocWalk(sim::Node &node, core::AccessPattern p,
                           std::uint64_t words, util::Rng &rng);

/**
 * Bytes of node memory a pairExchange() of @p words elements x -> y
 * reaches on its busiest node: the walks it allocates plus
 * @p ring_sets sets of message-layer staging rings (a set is one
 * ring per direction on each node), replayed through
 * NodeRam::alloc()'s alignment and @p alloc_skew padding. Saturates
 * instead of wrapping.
 */
sim::Bytes pairExchangeNodeBytes(core::AccessPattern x,
                                 core::AccessPattern y,
                                 std::uint64_t words,
                                 sim::Bytes alloc_skew,
                                 std::uint64_t ring_sets);

/**
 * The message-layer runs an exchange makes on one machine, as far as
 * node memory goes: every layer run allocates its staging rings
 * anew, and nothing is freed until the machine is.
 */
struct ExchangeLayers
{
    /** Ring sets one layer run allocates: 0 chained, 1 buffer
     *  packing, 2 PVM (TransferProgram::stagingBuffers). */
    int stagingBuffers = 0;
    /** A ReliableLayer that re-runs the exchange through buffer
     *  packing, one more ring set, when the deposit engine dies
     *  (ReliableOptions::degradeToPacking). Counted for every
     *  round, although a round whose layer already is buffer
     *  packing never degrades: the check runs before the controller
     *  picks any round's style, and a later round can still pick a
     *  deposit style. */
    bool degradeToPacking = false;
    /** Layer runs: 1 static; under the resilience controller one
     *  per round that carries words, each a fresh layer. */
    int rounds = 1;
};

/**
 * Empty if a pairExchange() of @p words elements x -> y, run by
 * @p layers, fits @p cfg's node RAM; otherwise a one-line reason
 * naming the word count and the node RAM, for callers that refuse
 * such a run before building a machine. A degradable layer counts
 * its fallback ring set only when @p cfg's fault spec can kill the
 * deposit engine (engine_fail > 0), so fault-free runs size as
 * before.
 */
std::string exchangeFitError(const sim::MachineConfig &cfg,
                             core::AccessPattern x,
                             core::AccessPattern y, std::uint64_t words,
                             const ExchangeLayers &layers);

/**
 * Replicate the index array of @p walk into @p node's memory (the
 * sender of a chained transfer generates the remote store addresses
 * and therefore needs the destination index array locally).
 */
sim::PatternWalk replicateIndexArray(const sim::PatternWalk &walk,
                                     std::uint64_t words,
                                     const sim::NodeRam &owner_ram,
                                     sim::Node &node);

/**
 * Build one flow src -> dst moving @p words elements read with
 * pattern @p x and written with pattern @p y, allocating all storage.
 */
Flow makeFlow(sim::Machine &machine, NodeId src, NodeId dst,
              core::AccessPattern x, core::AccessPattern y,
              std::uint64_t words, util::Rng &rng);

/**
 * Build a walk over @p array_base visiting the sorted word indices
 * @p locals. Regular index lists become contiguous or (block-)
 * strided walks; irregular ones materialize an index array in
 * @p index_home's memory (the node the walk is evaluated on).
 */
sim::PatternWalk walkForIndices(const std::vector<std::uint64_t> &locals,
                                Addr array_base, sim::Node &index_home);

/**
 * Pairwise exchange: nodes are grouped in pairs (0,1), (2,3), ...;
 * each partner sends @p words elements to the other with patterns
 * x -> y. Every node both sends and receives, as in the paper's
 * measurement setup.
 */
CommOp pairExchange(sim::Machine &machine, core::AccessPattern x,
                    core::AccessPattern y, std::uint64_t words,
                    std::uint64_t seed = 42);

/**
 * The traffic demands pairExchange() would generate on a
 * @p nodes-node machine, without building the machine: one demand in
 * each direction per pair, @p bytes_per_demand each. This is the
 * large-N analysis path -- a Topology plus this list answers the
 * congestion question for thousands of nodes in microseconds, with no
 * node state behind it.
 */
std::vector<sim::TrafficDemand>
pairExchangeDemands(int nodes, Bytes bytes_per_demand);

} // namespace ct::rt

#endif // CT_RT_WORKLOAD_H
