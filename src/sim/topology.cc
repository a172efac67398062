#include "topology.h"

#include <algorithm>
#include <deque>

#include "util/logging.h"

namespace ct::sim {

Topology::Topology(const TopologyConfig &config) : cfg(config)
{
    if (cfg.dims.empty())
        util::fatal("Topology: no dimensions");
    numNodes = 1;
    for (int d : cfg.dims) {
        if (d <= 0)
            util::fatal("Topology: non-positive dimension");
        numNodes *= d;
    }
    if (cfg.nodesPerPort <= 0 || numNodes % cfg.nodesPerPort != 0)
        util::fatal("Topology: bad nodesPerPort");
    networkLinksCount =
        numNodes * static_cast<int>(cfg.dims.size()) * 2;
    injectionPorts = numNodes / cfg.nodesPerPort;
    numLinks = networkLinksCount + 2 * injectionPorts;
    linkDownAt.assign(static_cast<std::size_t>(numLinks), kNeverDown);
    nodeDownAt.assign(static_cast<std::size_t>(numNodes), kNeverDown);
}

std::vector<int>
Topology::coords(NodeId node) const
{
    if (node < 0 || node >= numNodes)
        util::fatal("Topology::coords: bad node ", node);
    std::vector<int> c(cfg.dims.size());
    int rest = node;
    for (std::size_t d = 0; d < cfg.dims.size(); ++d) {
        c[d] = rest % cfg.dims[d];
        rest /= cfg.dims[d];
    }
    return c;
}

NodeId
Topology::nodeAt(const std::vector<int> &coords) const
{
    if (coords.size() != cfg.dims.size())
        util::fatal("Topology::nodeAt: wrong coordinate count");
    int node = 0;
    for (std::size_t d = cfg.dims.size(); d-- > 0;) {
        if (coords[d] < 0 || coords[d] >= cfg.dims[d])
            util::fatal("Topology::nodeAt: coordinate out of range");
        node = node * cfg.dims[d] + coords[d];
    }
    return node;
}

LinkId
Topology::networkLink(NodeId node, std::size_t dim, bool positive) const
{
    return static_cast<LinkId>(
        (node * cfg.dims.size() + dim) * 2 + (positive ? 0 : 1));
}

LinkId
Topology::injectionLink(NodeId node) const
{
    return networkLinksCount + node / cfg.nodesPerPort;
}

LinkId
Topology::ejectionLink(NodeId node) const
{
    return networkLinksCount + injectionPorts +
           node / cfg.nodesPerPort;
}

LinkId
Topology::stepLink(std::vector<int> &coords, std::size_t dim,
                   bool positive) const
{
    int radix = cfg.dims[dim];
    LinkId link = networkLink(nodeAt(coords), dim, positive);
    coords[dim] = (coords[dim] + (positive ? 1 : radix - 1)) % radix;
    return link;
}

std::vector<LinkId>
Topology::route(NodeId src, NodeId dst) const
{
    std::vector<LinkId> links;
    route(src, dst, links);
    return links;
}

void
Topology::route(NodeId src, NodeId dst,
                std::vector<LinkId> &links) const
{
    links.clear();
    if (src < 0 || src >= numNodes || dst < 0 || dst >= numNodes)
        util::fatal("Topology::route: bad endpoint");
    if (src == dst)
        return;

    links.push_back(injectionLink(src));

    // Dimension order resolves dimension d only after every lower
    // one, so on reaching d the packet still has src's coordinate
    // there: step it and the node number together, no coordinate
    // vectors needed.
    NodeId node = src;
    int src_rest = src, dst_rest = dst, place = 1;
    for (std::size_t d = 0; d < cfg.dims.size(); ++d) {
        int radix = cfg.dims[d];
        int cur = src_rest % radix, goal = dst_rest % radix;
        src_rest /= radix;
        dst_rest /= radix;
        while (cur != goal) {
            int forward = (goal - cur + radix) % radix;
            int backward = radix - forward;
            bool positive;
            if (cfg.torus)
                positive = forward <= backward;
            else
                positive = goal > cur;
            links.push_back(networkLink(node, d, positive));
            int next = (cur + (positive ? 1 : radix - 1)) % radix;
            node += (next - cur) * place;
            cur = next;
        }
        place *= radix;
    }
    links.push_back(ejectionLink(dst));
}

int
Topology::hopCount(NodeId src, NodeId dst) const
{
    if (src == dst)
        return 0;
    // Route includes injection and ejection; hops are the rest.
    return static_cast<int>(route(src, dst).size()) - 2;
}

void
Topology::downLink(LinkId link, Cycles at)
{
    if (link < 0 || link >= numLinks)
        util::fatal("Topology::downLink: bad link ", link,
                    " (have ", numLinks, ")");
    auto idx = static_cast<std::size_t>(link);
    linkDownAt[idx] = std::min(linkDownAt[idx], at);
    outagesRegistered = true;
}

void
Topology::downNode(NodeId node, Cycles at)
{
    if (node < 0 || node >= numNodes)
        util::fatal("Topology::downNode: bad node ", node);
    auto idx = static_cast<std::size_t>(node);
    nodeDownAt[idx] = std::min(nodeDownAt[idx], at);
    outagesRegistered = true;
}

namespace {

/** True when @p now falls in a down window of @p flap. */
bool
inFlapWindow(const FlapSpec &flap, Cycles now)
{
    if (now < flap.at)
        return false;
    return (now - flap.at) % flap.period < flap.down;
}

void
validateFlap(const char *what, const FlapSpec &flap)
{
    if (flap.period == 0 || flap.down == 0)
        util::fatal("Topology::", what,
                    ": flap needs a positive period and down time");
    if (flap.down >= flap.period)
        util::fatal("Topology::", what, ": flap down time ",
                    flap.down, " must be shorter than the period ",
                    flap.period, " (use a permanent outage instead)");
}

} // namespace

void
Topology::flapLink(LinkId link, const FlapSpec &flap)
{
    if (link < 0 || link >= numLinks)
        util::fatal("Topology::flapLink: bad link ", link, " (have ",
                    numLinks, ")");
    validateFlap("flapLink", flap);
    linkFlaps[link] = flap;
    outagesRegistered = true;
}

void
Topology::flapNode(NodeId node, const FlapSpec &flap)
{
    if (node < 0 || node >= numNodes)
        util::fatal("Topology::flapNode: bad node ", node);
    validateFlap("flapNode", flap);
    nodeFlaps[node] = flap;
    outagesRegistered = true;
}

bool
Topology::linkAlive(LinkId link, Cycles now) const
{
    if (now >= linkDownAt[static_cast<std::size_t>(link)])
        return false;
    if (!linkFlaps.empty()) {
        auto it = linkFlaps.find(link);
        if (it != linkFlaps.end() && inFlapWindow(it->second, now))
            return false;
    }
    return true;
}

bool
Topology::nodeAlive(NodeId node, Cycles now) const
{
    if (now >= nodeDownAt[static_cast<std::size_t>(node)])
        return false;
    if (!nodeFlaps.empty()) {
        auto it = nodeFlaps.find(node);
        if (it != nodeFlaps.end() && inFlapWindow(it->second, now))
            return false;
    }
    return true;
}

bool
Topology::nodeRecovers(NodeId node, Cycles now) const
{
    if (now >= nodeDownAt[static_cast<std::size_t>(node)])
        return false; // permanently dead
    auto it = nodeFlaps.find(node);
    return it != nodeFlaps.end() && inFlapWindow(it->second, now);
}

int
Topology::downedLinks(Cycles now) const
{
    int count = 0;
    for (Cycles at : linkDownAt)
        count += at <= now;
    for (const auto &[link, flap] : linkFlaps)
        if (now < linkDownAt[static_cast<std::size_t>(link)] &&
            inFlapWindow(flap, now))
            ++count;
    return count;
}

int
Topology::downedNodes(Cycles now) const
{
    int count = 0;
    for (Cycles at : nodeDownAt)
        count += at <= now;
    for (const auto &[node, flap] : nodeFlaps)
        if (now < nodeDownAt[static_cast<std::size_t>(node)] &&
            inFlapWindow(flap, now))
            ++count;
    return count;
}

std::vector<LinkId>
Topology::bfsRoute(NodeId src, NodeId dst, Cycles now) const
{
    // Breadth-first search over live network links, so the detour is
    // a shortest live path. Parent links reconstruct the route.
    std::vector<LinkId> parentLink(static_cast<std::size_t>(numNodes),
                                   -1);
    std::vector<NodeId> parentNode(static_cast<std::size_t>(numNodes),
                                   -1);
    std::vector<bool> seen(static_cast<std::size_t>(numNodes), false);
    std::deque<NodeId> frontier{src};
    seen[static_cast<std::size_t>(src)] = true;

    while (!frontier.empty()) {
        NodeId here = frontier.front();
        frontier.pop_front();
        if (here == dst)
            break;
        auto c = coords(here);
        for (std::size_t d = 0; d < cfg.dims.size(); ++d) {
            for (bool positive : {true, false}) {
                // A mesh has no wrap links; skip moves off the edge.
                if (!cfg.torus &&
                    ((positive && c[d] + 1 >= cfg.dims[d]) ||
                     (!positive && c[d] == 0)))
                    continue;
                if (cfg.dims[d] == 1)
                    continue;
                auto next = c;
                LinkId link = stepLink(next, d, positive);
                NodeId there = nodeAt(next);
                if (seen[static_cast<std::size_t>(there)] ||
                    !linkAlive(link, now))
                    continue;
                seen[static_cast<std::size_t>(there)] = true;
                parentLink[static_cast<std::size_t>(there)] = link;
                parentNode[static_cast<std::size_t>(there)] = here;
                frontier.push_back(there);
            }
        }
    }
    if (!seen[static_cast<std::size_t>(dst)])
        return {};

    std::vector<LinkId> links;
    for (NodeId n = dst; n != src;
         n = parentNode[static_cast<std::size_t>(n)])
        links.push_back(parentLink[static_cast<std::size_t>(n)]);
    std::reverse(links.begin(), links.end());
    return links;
}

RouteInfo
Topology::healthyRoute(NodeId src, NodeId dst, Cycles now) const
{
    RouteInfo info;
    healthyRoute(src, dst, now, info);
    return info;
}

void
Topology::healthyRoute(NodeId src, NodeId dst, Cycles now,
                       RouteInfo &info) const
{
    info.links.clear();
    info.avoided.clear();
    info.ok = true;
    info.rerouted = false;
    if (src < 0 || src >= numNodes || dst < 0 || dst >= numNodes)
        util::fatal("Topology::healthyRoute: bad endpoint");
    if (src == dst)
        return;

    if (!linkAlive(injectionLink(src), now) ||
        !linkAlive(ejectionLink(dst), now)) {
        if (!linkAlive(injectionLink(src), now))
            info.avoided.push_back(injectionLink(src));
        else
            info.avoided.push_back(ejectionLink(dst));
        info.ok = false;
        return;
    }
    info.links.push_back(injectionLink(src));

    auto cur = coords(src);
    auto goal = coords(dst);
    std::vector<LinkId> segment; // reused across dimensions/attempts
    for (std::size_t d = 0; d < cfg.dims.size(); ++d) {
        int radix = cfg.dims[d];
        if (cur[d] == goal[d])
            continue;
        int forward = (goal[d] - cur[d] + radix) % radix;
        int backward = radix - forward;
        bool preferPositive =
            cfg.torus ? forward <= backward : goal[d] > cur[d];

        // Try the preferred direction, then (torus only) the long way
        // around the ring; commit whichever path is fully alive.
        bool resolved = false;
        for (int attempt = 0; attempt < (cfg.torus ? 2 : 1);
             ++attempt) {
            bool positive = attempt == 0 ? preferPositive
                                         : !preferPositive;
            auto probe = cur;
            segment.clear();
            bool alive = true;
            while (probe[d] != goal[d]) {
                LinkId link = stepLink(probe, d, positive);
                if (!linkAlive(link, now)) {
                    info.avoided.push_back(link);
                    alive = false;
                    break;
                }
                segment.push_back(link);
            }
            if (alive) {
                if (attempt > 0)
                    info.rerouted = true;
                info.links.insert(info.links.end(), segment.begin(),
                                  segment.end());
                cur[d] = goal[d];
                resolved = true;
                break;
            }
        }
        if (!resolved) {
            // No single-dimension detour: breadth-first search from
            // the current position over all live links.
            auto rest = bfsRoute(nodeAt(cur), dst, now);
            if (rest.empty()) {
                info.ok = false;
                info.links.clear();
                return;
            }
            info.rerouted = true;
            info.links.insert(info.links.end(), rest.begin(),
                              rest.end());
            info.links.push_back(ejectionLink(dst));
            return;
        }
    }
    info.links.push_back(ejectionLink(dst));
}

CongestionReport
Topology::analyzeCongestion(const std::vector<TrafficDemand> &demands,
                            Cycles now,
                            CongestionScratch &scratch) const
{
    // Per-link loads accumulate into a hash map keyed by the links the
    // routed demands actually touch, and each demand's (sender, bytes)
    // into a list, so the footprint follows the traffic pattern, never
    // linkCount() or nodeCount(). Sums of whole byte counts are exact
    // in any order and the peaks are maxima, so the factor is
    // bit-identical to the dense analysis.
    auto &load = scratch.load;
    auto &sent = scratch.sent;
    load.clear();
    sent.clear();
    CongestionReport report;
    for (const auto &demand : demands) {
        if (demand.bytes == 0 || demand.src == demand.dst)
            continue;
        const std::vector<LinkId> *links = nullptr;
        if (outagesRegistered) {
            healthyRoute(demand.src, demand.dst, now, scratch.healthy);
            if (!scratch.healthy.ok) {
                ++report.unroutable; // carries no load
                continue;
            }
            links = &scratch.healthy.links;
        } else {
            route(demand.src, demand.dst, scratch.route);
            links = &scratch.route;
        }
        ++report.routed;
        sent.emplace_back(demand.src, static_cast<double>(demand.bytes));
        for (LinkId link : *links)
            load[link] += static_cast<double>(demand.bytes);
    }
    report.touchedLinks = static_cast<int>(load.size());
    if (report.routed == 0)
        return report; // factor stays at the 1.0 floor
    // The unit is what one node injects: splitting its data into k
    // demands must not grow the factor k-fold. Builders emit demands
    // grouped by sender, so the sort is rare.
    if (!std::is_sorted(sent.begin(), sent.end()))
        std::sort(sent.begin(), sent.end());
    double busiest_sender = 0.0, node_bytes = 0.0;
    for (std::size_t i = 0; i < sent.size(); ++i) {
        bool same = i > 0 && sent[i].first == sent[i - 1].first;
        node_bytes = (same ? node_bytes : 0.0) + sent[i].second;
        busiest_sender = std::max(busiest_sender, node_bytes);
    }
    double peak = 0.0;
    for (const auto &[link, bytes] : load)
        peak = std::max(peak, bytes);
    report.factor = std::max(1.0, peak / busiest_sender);
    return report;
}

CongestionReport
Topology::analyzeCongestion(const std::vector<TrafficDemand> &demands,
                            Cycles now) const
{
    CongestionScratch scratch;
    return analyzeCongestion(demands, now, scratch);
}

double
Topology::congestionOf(const std::vector<TrafficDemand> &demands,
                       Cycles now) const
{
    return analyzeCongestion(demands, now).factor;
}

} // namespace ct::sim
