#include "comm_op.h"

#include <algorithm>
#include <map>

#include "util/logging.h"

namespace ct::rt {

Bytes
CommOp::totalBytes() const
{
    Bytes total = 0;
    for (const auto &flow : flows)
        total += flow.words * 8;
    return total;
}

Bytes
CommOp::maxBytesPerSender() const
{
    std::map<NodeId, Bytes> per_sender;
    for (const auto &flow : flows)
        per_sender[flow.src] += flow.words * 8;
    Bytes best = 0;
    for (const auto &[node, bytes] : per_sender)
        best = std::max(best, bytes);
    return best;
}

std::vector<sim::TrafficDemand>
CommOp::demands() const
{
    std::vector<sim::TrafficDemand> result;
    result.reserve(flows.size());
    for (const auto &flow : flows)
        result.push_back({flow.src, flow.dst, flow.words * 8});
    return result;
}

std::pair<std::size_t, std::uint64_t>
FlowGroup::locate(std::uint64_t word) const
{
    // prefix is sorted; find the last flow starting at or before word.
    std::size_t lo = 0, hi = flows.size();
    while (lo + 1 < hi) {
        std::size_t mid = (lo + hi) / 2;
        if (prefix[mid] <= word)
            lo = mid;
        else
            hi = mid;
    }
    return {lo, word - prefix[lo]};
}

std::vector<FlowGroup>
groupFlows(const CommOp &op)
{
    std::vector<FlowGroup> groups;
    const std::vector<Flow> &flows = op.flows;
    std::size_t f = 0;
    while (f < flows.size()) {
        if (flows[f].words == 0) {
            ++f;
            continue;
        }
        // A group runs to the next flow with words for another
        // (src, dst); flows without words inside it are skipped.
        // Count its members first so both lists are sized once.
        NodeId src = flows[f].src, dst = flows[f].dst;
        std::size_t end = f, members = 0;
        for (; end < flows.size(); ++end) {
            if (flows[end].words == 0)
                continue;
            if (flows[end].src != src || flows[end].dst != dst)
                break;
            ++members;
        }
        FlowGroup &group = groups.emplace_back();
        group.src = src;
        group.dst = dst;
        group.flows.reserve(members);
        group.prefix.reserve(members + 1);
        group.prefix.push_back(0);
        for (; f < end; ++f) {
            if (flows[f].words == 0)
                continue;
            group.flows.push_back(f);
            group.prefix.push_back(group.prefix.back() + flows[f].words);
        }
    }
    return groups;
}

ActiveSet::ActiveSet(const std::vector<FlowGroup> &groups)
{
    ids.reserve(groups.size() * 2);
    for (const FlowGroup &group : groups) {
        ids.push_back(group.src);
        ids.push_back(group.dst);
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    slots.reserve(ids.size());
    for (std::size_t s = 0; s < ids.size(); ++s)
        slots.emplace(ids[s], s);
}

std::size_t
ActiveSet::slot(NodeId node) const
{
    auto it = slots.find(node);
    if (it == slots.end())
        util::fatal("ActiveSet: node ", node,
                    " is not part of this operation");
    return it->second;
}

namespace {

std::uint64_t
sourceValue(std::size_t flow_idx, std::uint64_t element)
{
    return (static_cast<std::uint64_t>(flow_idx) << 40) ^ (element + 1);
}

} // namespace

void
seedSources(sim::Machine &machine, const CommOp &op)
{
    for (std::size_t f = 0; f < op.flows.size(); ++f) {
        const Flow &flow = op.flows[f];
        if (flow.words == 0)
            continue;
        sim::NodeRam &ram = machine.node(flow.src).ram();
        sim::withCursor(flow.srcWalk, 0, [&](auto cur) {
            for (std::uint64_t i = 0; i < flow.words; ++i, cur.advance())
                ram.writeWord(cur.elementAddr(ram), sourceValue(f, i));
        });
    }
}

std::uint64_t
verifyDelivery(sim::Machine &machine, const CommOp &op)
{
    std::uint64_t mismatches = 0;
    for (const Flow &flow : op.flows) {
        if (flow.words == 0)
            continue;
        const sim::NodeRam &src_ram = machine.node(flow.src).ram();
        const sim::NodeRam &dst_ram = machine.node(flow.dst).ram();
        sim::withCursor(flow.srcWalk, 0, [&](auto src) {
            sim::withCursor(flow.dstWalk, 0, [&](auto dst) {
                for (std::uint64_t i = 0; i < flow.words;
                     ++i, src.advance(), dst.advance())
                    mismatches += src_ram.readWord(src.elementAddr(src_ram)) !=
                                  dst_ram.readWord(dst.elementAddr(dst_ram));
            });
        });
    }
    return mismatches;
}

std::uint64_t
dropDeadFlows(CommOp &op, const sim::Topology &topo, sim::Cycles at)
{
    std::uint64_t lost = 0;
    if (topo.anyOutages())
        std::erase_if(op.flows, [&](const Flow &flow) {
            bool dead = !topo.nodeAlive(flow.src, at) ||
                        !topo.nodeAlive(flow.dst, at);
            lost += dead ? flow.words : 0;
            return dead;
        });
    return lost;
}

} // namespace ct::rt
