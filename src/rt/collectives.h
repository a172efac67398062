/**
 * @file
 * Collective communication operations built on the message layers:
 * the standard steps a parallelizing compiler emits around array
 * statements (paper §2.1): cyclic shifts, personalized all-to-all
 * (the paper's AAPC), broadcast, and gather. Each collective builds
 * its flow sets, executes them round by round with the chosen layer,
 * verifies delivery, and reports the end-to-end timing.
 */

#ifndef CT_RT_COLLECTIVES_H
#define CT_RT_COLLECTIVES_H

#include "rt/layer.h"

namespace ct::rt {

/** Timing summary of one collective. */
struct CollectiveResult
{
    Cycles makespan = 0;
    /** Payload bytes the busiest node injected over all rounds. */
    Bytes bytesPerNode = 0;
    int rounds = 0;

    // Failure handling (all zero on a healthy machine). Collectives
    // re-plan around nodes that are dead when the flow set is built
    // and exclude flows whose endpoint dies mid-operation from
    // verification; link outages are invisible at this level beyond
    // the detours they force.
    /** Distinct dead links the network detoured around. */
    std::uint64_t reroutedLinks = 0;
    /** Nodes dead by the end of the collective. */
    int lostNodes = 0;
    /** Words not delivered because an endpoint node was/went dead. */
    std::uint64_t lostWords = 0;

    util::MBps
    perNodeMBps(const sim::Machine &machine) const
    {
        return machine.toMBps(bytesPerNode, makespan);
    }
};

/**
 * Cyclic shift: node p sends @p words contiguous words to node
 * (p + displacement) mod P. The next-neighbour pattern of the
 * paper's SOR kernel.
 */
CollectiveResult shift(sim::Machine &machine, MessageLayer &layer,
                       std::uint64_t words, int displacement = 1);

/**
 * All-to-all personalized communication: every node sends a distinct
 * block of @p words_per_pair words to every other node, staggered
 * with the rotation schedule of the paper's reference [8].
 */
CollectiveResult allToAll(sim::Machine &machine, MessageLayer &layer,
                          std::uint64_t words_per_pair);

/**
 * Naive all-to-all: every node serves its partners in ascending node
 * order, so early receivers are hit by every sender at once. Exists
 * to quantify what the rotation schedule buys.
 */
CollectiveResult allToAllNaive(sim::Machine &machine,
                               MessageLayer &layer,
                               std::uint64_t words_per_pair);

/**
 * Phased all-to-all: P-1 synchronized rounds; in round r node p
 * talks only to p+r. Each round is a contention-free permutation
 * (the schedule of the paper's reference [8]) at the cost of a
 * barrier per round.
 */
CollectiveResult allToAllPhased(sim::Machine &machine,
                                MessageLayer &layer,
                                std::uint64_t words_per_pair);

/**
 * Broadcast @p words words from @p root with a binomial tree
 * (ceil(log2 P) rounds of doubling senders).
 */
CollectiveResult broadcast(sim::Machine &machine, MessageLayer &layer,
                           std::uint64_t words, NodeId root = 0);

/**
 * Gather @p words_per_node words from every node into @p root's
 * buffer. The fan-in congests the root's ejection port, which the
 * link-level network model exposes.
 */
CollectiveResult gatherTo(sim::Machine &machine, MessageLayer &layer,
                          std::uint64_t words_per_node,
                          NodeId root = 0);

} // namespace ct::rt

#endif // CT_RT_COLLECTIVES_H
