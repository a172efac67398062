#include "collectives.h"

#include <map>

#include "util/logging.h"

namespace ct::rt {

namespace {

/** Is @p node able to inject/drain traffic right now? */
bool
nodeLive(sim::Machine &machine, NodeId node)
{
    const sim::Topology &topo = machine.topology();
    return !topo.anyOutages() ||
           topo.nodeAlive(node, machine.events().now());
}

/** Fold the machine's outage view into the collective summary. */
void
noteOutages(sim::Machine &machine, CollectiveResult &total)
{
    total.reroutedLinks = machine.network().stats().reroutedLinks;
    if (machine.topology().anyOutages())
        total.lostNodes = machine.topology().downedNodes(
            machine.events().now());
}

/**
 * Run one CommOp, verify it, and fold it into the summary. Flows
 * whose endpoint died (before or during the round) cannot have
 * delivered and are excluded from verification; their words are
 * counted lost. Any other mismatch is a genuine corruption and
 * fatal.
 */
void
runRound(sim::Machine &machine, MessageLayer &layer, CommOp &op,
         CollectiveResult &total)
{
    if (op.flows.empty())
        return;
    seedSources(machine, op);
    RunResult r = layer.run(machine, op);
    CommOp check = op;
    total.lostWords += dropDeadFlows(check, machine.topology(),
                                     machine.events().now());
    if (verifyDelivery(machine, check) != 0)
        util::fatal("collective '", op.name, "': corrupted delivery");
    total.makespan += r.makespan;
    total.bytesPerNode += r.maxBytesPerSender;
    ++total.rounds;
}

Flow
contiguousFlow(sim::Machine &machine, NodeId src, NodeId dst,
               std::uint64_t words)
{
    Flow flow;
    flow.src = src;
    flow.dst = dst;
    flow.words = words;
    flow.srcWalk = sim::contiguousWalk(
        machine.node(src).ram().alloc(words * 8));
    flow.dstWalk = sim::contiguousWalk(
        machine.node(dst).ram().alloc(words * 8));
    flow.dstWalkOnSender = flow.dstWalk;
    return flow;
}

} // namespace

CollectiveResult
shift(sim::Machine &machine, MessageLayer &layer, std::uint64_t words,
      int displacement)
{
    int p = machine.nodeCount();
    if (displacement % p == 0)
        util::fatal("shift: displacement must move data");
    CommOp op;
    op.name = "shift(" + std::to_string(displacement) + ")";
    CollectiveResult total;
    for (NodeId node = 0; node < p; ++node) {
        NodeId dst = (node + displacement % p + p) % p;
        if (!nodeLive(machine, node) || !nodeLive(machine, dst)) {
            total.lostWords += words;
            continue;
        }
        op.flows.push_back(contiguousFlow(machine, node, dst, words));
    }
    runRound(machine, layer, op, total);
    noteOutages(machine, total);
    return total;
}

CollectiveResult
allToAll(sim::Machine &machine, MessageLayer &layer,
         std::uint64_t words_per_pair)
{
    int p = machine.nodeCount();
    CommOp op;
    op.name = "all-to-all";
    CollectiveResult total;
    for (NodeId src = 0; src < p; ++src) {
        if (!nodeLive(machine, src)) {
            total.lostWords +=
                words_per_pair * static_cast<std::uint64_t>(p - 1);
            continue;
        }
        // Rotation schedule: partner p+1, p+2, ... avoids hot
        // receivers (reference [8] of the paper).
        for (int step = 1; step < p; ++step) {
            NodeId dst = (src + step) % p;
            if (!nodeLive(machine, dst)) {
                total.lostWords += words_per_pair;
                continue;
            }
            op.flows.push_back(
                contiguousFlow(machine, src, dst, words_per_pair));
        }
    }
    runRound(machine, layer, op, total);
    noteOutages(machine, total);
    return total;
}

CollectiveResult
allToAllNaive(sim::Machine &machine, MessageLayer &layer,
              std::uint64_t words_per_pair)
{
    int p = machine.nodeCount();
    CommOp op;
    op.name = "all-to-all (naive order)";
    CollectiveResult total;
    for (NodeId src = 0; src < p; ++src)
        for (NodeId dst = 0; dst < p; ++dst) {
            if (dst == src)
                continue;
            if (!nodeLive(machine, src) || !nodeLive(machine, dst)) {
                total.lostWords += words_per_pair;
                continue;
            }
            op.flows.push_back(contiguousFlow(machine, src, dst,
                                              words_per_pair));
        }
    runRound(machine, layer, op, total);
    noteOutages(machine, total);
    return total;
}

CollectiveResult
allToAllPhased(sim::Machine &machine, MessageLayer &layer,
               std::uint64_t words_per_pair)
{
    int p = machine.nodeCount();
    CollectiveResult total;
    for (int step = 1; step < p; ++step) {
        CommOp op;
        op.name = "all-to-all phase " + std::to_string(step);
        for (NodeId src = 0; src < p; ++src) {
            NodeId dst = (src + step) % p;
            if (!nodeLive(machine, src) || !nodeLive(machine, dst)) {
                total.lostWords += words_per_pair;
                continue;
            }
            op.flows.push_back(
                contiguousFlow(machine, src, dst, words_per_pair));
        }
        runRound(machine, layer, op, total);
    }
    noteOutages(machine, total);
    return total;
}

CollectiveResult
broadcast(sim::Machine &machine, MessageLayer &layer,
          std::uint64_t words, NodeId root)
{
    int p = machine.nodeCount();
    if (root != 0)
        util::fatal("broadcast: only root 0 is supported");
    if (!nodeLive(machine, root))
        util::fatal("broadcast: root node ", root, " is down");

    // The tree spans the nodes alive at the start. A node that dies
    // mid-broadcast stops receiving (its words are counted lost) and
    // its pending forwards are re-sourced from the root, so live
    // descendants still get the data.
    std::vector<NodeId> live;
    for (NodeId node = 0; node < p; ++node)
        if (nodeLive(machine, node))
            live.push_back(node);
    int ranks = static_cast<int>(live.size());

    // One broadcast buffer per *live* node; the tree forwards through
    // them. Dead nodes never join the tree, so materializing their
    // buffers would be pure capacity-proportional waste (each node
    // has its own allocator, so skipping them shifts no addresses).
    std::map<NodeId, Addr> buffer;
    for (NodeId node : live)
        buffer.emplace(node, machine.node(node).ram().alloc(words * 8));
    for (std::uint64_t w = 0; w < words; ++w)
        machine.node(root).ram().writeWord(buffer.at(root) + w * 8,
                                           0xB0000 + w);

    // Binomial tree over live ranks: in round r, ranks < 2^r forward
    // to rank + 2^r.
    CollectiveResult total;
    for (int round = 1; round < ranks; round <<= 1) {
        CommOp op;
        op.name = "broadcast round";
        for (int rank = 0; rank < round && rank + round < ranks;
             ++rank) {
            NodeId src = live[static_cast<std::size_t>(rank)];
            NodeId dst =
                live[static_cast<std::size_t>(rank + round)];
            if (!nodeLive(machine, dst)) {
                total.lostWords += words;
                continue;
            }
            if (!nodeLive(machine, src))
                src = root; // parent died: re-source from the root
            Flow flow;
            flow.src = src;
            flow.dst = dst;
            flow.words = words;
            flow.srcWalk = sim::contiguousWalk(buffer.at(src));
            flow.dstWalk = sim::contiguousWalk(buffer.at(dst));
            flow.dstWalkOnSender = flow.dstWalk;
            op.flows.push_back(flow);
        }
        if (op.flows.empty())
            break;
        RunResult r = layer.run(machine, op);
        total.makespan += r.makespan;
        total.bytesPerNode += words * 8; // tree depth x message
        ++total.rounds;
    }

    // Every still-live node must now hold the root's data.
    for (NodeId node : live) {
        if (!nodeLive(machine, node))
            continue;
        for (std::uint64_t w = 0; w < words; w += 17)
            if (machine.node(node).ram().readWord(
                    buffer.at(node) + w * 8) != 0xB0000 + w)
                util::fatal("broadcast: node ", node,
                            " missing data at word ", w);
    }
    noteOutages(machine, total);
    return total;
}

CollectiveResult
gatherTo(sim::Machine &machine, MessageLayer &layer,
         std::uint64_t words_per_node, NodeId root)
{
    int p = machine.nodeCount();
    CommOp op;
    op.name = "gather";
    if (!nodeLive(machine, root))
        util::fatal("gatherTo: root node ", root, " is down");
    CollectiveResult total;
    Addr buffer = machine.node(root).ram().alloc(
        words_per_node * static_cast<std::uint64_t>(p) * 8);
    for (NodeId src = 0; src < p; ++src) {
        if (src == root)
            continue;
        if (!nodeLive(machine, src)) {
            total.lostWords += words_per_node;
            continue;
        }
        Flow flow;
        flow.src = src;
        flow.dst = root;
        flow.words = words_per_node;
        flow.srcWalk = sim::contiguousWalk(
            machine.node(src).ram().alloc(words_per_node * 8));
        flow.dstWalk = sim::contiguousWalk(
            buffer + static_cast<std::uint64_t>(src) *
                         words_per_node * 8);
        flow.dstWalkOnSender = flow.dstWalk;
        op.flows.push_back(flow);
    }
    runRound(machine, layer, op, total);
    // The gather is root-limited: report the root's receive volume.
    total.bytesPerNode = static_cast<Bytes>(op.flows.size()) *
                         words_per_node * 8;
    noteOutages(machine, total);
    return total;
}

} // namespace ct::rt
