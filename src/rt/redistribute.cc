#include "redistribute.h"

#include "rt/workload.h"
#include "util/logging.h"

namespace ct::rt {

namespace {

using core::AccessPattern;
using core::Distribution;

} // namespace

RedistributionWorkload
RedistributionWorkload::create(sim::Machine &machine,
                               const Distribution &from,
                               const Distribution &to)
{
    if (from.nodes() != machine.nodeCount() ||
        to.nodes() != machine.nodeCount())
        util::fatal("RedistributionWorkload: distributions must span "
                    "the machine");
    if (from.elements() != to.elements())
        util::fatal("RedistributionWorkload: element count mismatch");

    RedistributionWorkload w;
    w.fromDist = from;
    w.toDist = to;
    w.commOp.name = from.name() + " -> " + to.name();

    int nodes = machine.nodeCount();
    for (int node = 0; node < nodes; ++node) {
        sim::NodeRam &ram = machine.node(node).ram();
        std::uint64_t src_count =
            std::max<std::uint64_t>(1, from.localCount(node));
        std::uint64_t dst_count =
            std::max<std::uint64_t>(1, to.localCount(node));
        w.srcBase.push_back(ram.alloc(src_count * 8));
        w.dstBase.push_back(ram.alloc(dst_count * 8));
    }

    // Rotation schedule over the receivers, as for the transpose.
    for (int p = 0; p < nodes; ++p) {
        for (int step = 0; step < nodes; ++step) {
            int q = (p + step) % nodes;
            auto moved = core::redistributionIndices(from, to, p, q);
            if (moved.empty())
                continue;

            std::vector<std::uint64_t> src_locals, dst_locals;
            src_locals.reserve(moved.size());
            dst_locals.reserve(moved.size());
            for (std::uint64_t g : moved) {
                src_locals.push_back(from.localIndexOf(g));
                dst_locals.push_back(to.localIndexOf(g));
            }

            Flow flow;
            flow.src = p;
            flow.dst = q;
            flow.words = moved.size();
            flow.srcWalk =
                walkForIndices(src_locals,
                        w.srcBase[static_cast<std::size_t>(p)],
                        machine.node(p));
            flow.dstWalk =
                walkForIndices(dst_locals,
                        w.dstBase[static_cast<std::size_t>(q)],
                        machine.node(q));
            // Chained senders generate remote addresses; an indexed
            // destination walk needs its index array sender-side.
            flow.dstWalkOnSender =
                flow.dstWalk.pattern.isIndexed()
                    ? walkForIndices(dst_locals,
                              w.dstBase[static_cast<std::size_t>(q)],
                              machine.node(p))
                    : flow.dstWalk;
            w.commOp.flows.push_back(flow);
        }
    }
    return w;
}

void
RedistributionWorkload::fillInput(sim::Machine &machine) const
{
    for (std::uint64_t g = 0; g < fromDist.elements(); ++g) {
        int p = fromDist.ownerOf(g);
        machine.node(p).ram().writeWord(
            srcBase[static_cast<std::size_t>(p)] +
                fromDist.localIndexOf(g) * 8,
            g + 1);
    }
}

std::uint64_t
RedistributionWorkload::verify(sim::Machine &machine) const
{
    std::uint64_t mismatches = 0;
    // Elements that keep their owner are checked too: create() moves
    // them by a p -> p flow like any other.
    for (std::uint64_t g = 0; g < toDist.elements(); ++g) {
        int q = toDist.ownerOf(g);
        std::uint64_t got = machine.node(q).ram().readWord(
            dstBase[static_cast<std::size_t>(q)] +
            toDist.localIndexOf(g) * 8);
        mismatches += got != g + 1;
    }
    return mismatches;
}

std::pair<core::AccessPattern, core::AccessPattern>
RedistributionWorkload::dominantPatterns() const
{
    const Flow *best = nullptr;
    for (const auto &flow : commOp.flows)
        if (!best || flow.words > best->words)
            best = &flow;
    if (!best)
        return {AccessPattern::contiguous(),
                AccessPattern::contiguous()};
    return {best->srcWalk.pattern, best->dstWalk.pattern};
}

} // namespace ct::rt
