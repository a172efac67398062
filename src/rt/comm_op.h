/**
 * @file
 * Communication operations: the compiler-level description of a data
 * transfer step (paper §2.1). A CommOp is a set of flows, each moving
 * a number of words from a source-node walk to a destination-node
 * walk; the runtime layers (chained / buffer-packing / PVM) decide
 * how the flows are executed on the machine.
 */

#ifndef CT_RT_COMM_OP_H
#define CT_RT_COMM_OP_H

#include <string>
#include <unordered_map>
#include <vector>

#include "sim/machine.h"
#include "sim/walk.h"

namespace ct::rt {

using sim::Addr;
using sim::Bytes;
using sim::Cycles;
using sim::NodeId;

/** One point-to-point transfer of a communication step. */
struct Flow
{
    NodeId src = 0;
    NodeId dst = 0;
    /** How the source node reads the data (pattern x). */
    sim::PatternWalk srcWalk;
    /** Where and how the data lands on the destination (pattern y). */
    sim::PatternWalk dstWalk;
    /**
     * For chained transfers the *sender* generates the remote store
     * addresses (§2.1); an indexed destination pattern therefore
     * needs its index array replicated in the sender's memory. For
     * non-indexed destinations this equals dstWalk.
     */
    sim::PatternWalk dstWalkOnSender;
    std::uint64_t words = 0;
};

/** A complete communication step (e.g. one transpose exchange). */
struct CommOp
{
    std::string name = "comm-op";
    std::vector<Flow> flows;

    /** Total payload moved by all flows. */
    Bytes totalBytes() const;

    /** Largest payload sent by any single node. */
    Bytes maxBytesPerSender() const;

    /** Traffic demands for congestion analysis. */
    std::vector<sim::TrafficDemand> demands() const;
};

/**
 * Flows of one (src, dst) pair, as aggregated by the runtime layers:
 * buffer packing packs all of a partner's data into one message
 * stream, and chained transfers switch the annex once per partner.
 */
struct FlowGroup
{
    NodeId src = 0;
    NodeId dst = 0;
    /** Indices into CommOp::flows, in transmission order. */
    std::vector<std::size_t> flows;
    /** Word offset of each flow within the group (plus the total). */
    std::vector<std::uint64_t> prefix;

    std::uint64_t totalWords() const { return prefix.back(); }

    /**
     * Map a group-space word offset to (position within `flows`,
     * offset within that flow).
     */
    std::pair<std::size_t, std::uint64_t>
    locate(std::uint64_t word) const;
};

/**
 * Partition the flows into maximal runs of consecutive flows with
 * the same (src, dst). Builders emit flows grouped by partner, so
 * this recovers the per-partner message streams.
 */
std::vector<FlowGroup> groupFlows(const CommOp &op);

/**
 * The nodes a communication operation actually touches, each mapped
 * to a dense slot so layers can size per-node state O(active
 * endpoints) instead of O(machine capacity). Built once when a run
 * starts and immutable afterwards, so parallel event windows may read
 * it concurrently without synchronization.
 */
class ActiveSet
{
  public:
    ActiveSet() = default;

    /** All distinct sources and destinations of @p groups. */
    explicit ActiveSet(const std::vector<FlowGroup> &groups);

    /** Active node count (== slot count). */
    std::size_t count() const { return ids.size(); }

    /** The active nodes, ascending. */
    const std::vector<NodeId> &nodeList() const { return ids; }

    /** Dense slot of @p node; fatal when the node is not active. */
    std::size_t slot(NodeId node) const;

  private:
    std::vector<NodeId> ids; ///< ascending
    std::unordered_map<NodeId, std::size_t> slots;
};

/**
 * Seed every flow's source elements with deterministic values
 * derived from (flow index, element index), so delivery can be
 * verified bit-exactly.
 */
void seedSources(sim::Machine &machine, const CommOp &op);

/**
 * Check that every destination element holds the value of its source
 * element. Returns the number of mismatched words (0 = success).
 */
std::uint64_t verifyDelivery(sim::Machine &machine, const CommOp &op);

/**
 * The outage rule: remove @p op's flows with an endpoint down at
 * cycle @p at, keeping the rest in order, and return their words:
 * lost, not corrupt. Applied at cycle 0 and again before verifying.
 */
std::uint64_t dropDeadFlows(CommOp &op, const sim::Topology &topo,
                            sim::Cycles at);

} // namespace ct::rt

#endif // CT_RT_COMM_OP_H
