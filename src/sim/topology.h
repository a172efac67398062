/**
 * @file
 * Direct-network topology: k-ary n-dimensional mesh or torus with
 * dimension-order routing, as used by the T3D (3-D torus) and the
 * Paragon (2-D mesh). Provides routes for the link-level network
 * model and static link-load analysis from which the congestion
 * factor of a traffic pattern is derived (paper §4.3).
 *
 * The topology also carries an outage model: any directed link or
 * any node can be marked down from a given cycle onward. Routing
 * queries are health-aware -- healthyRoute() misroutes around dead
 * links (the other way around the ring of the affected dimension,
 * falling back to a breadth-first search when no per-dimension
 * detour exists) -- and the static link-load analysis recomputes
 * congestion over the detoured routes, so the §4.3 numbers degrade
 * honestly when the fabric does.
 *
 * A downed *node* stops injecting and draining traffic; its router
 * keeps forwarding (on the T3D the switch is physically separate
 * from the PE and survives processor death). Killing the routing
 * through a position is expressed by downing its links instead.
 */

#ifndef CT_SIM_TOPOLOGY_H
#define CT_SIM_TOPOLOGY_H

#include <cstdint>
#include <limits>
#include <map>
#include <unordered_map>
#include <vector>

#include "sim/packet.h"

namespace ct::sim {

/** Identifies one directed inter-router channel. */
using LinkId = std::int32_t;

/** "Never": the down-cycle of a healthy link or node. */
inline constexpr Cycles kNeverDown =
    std::numeric_limits<Cycles>::max();

/** Geometry of the direct network. */
struct TopologyConfig
{
    std::vector<int> dims; ///< radix per dimension, e.g. {4,4,4}
    bool torus = true;     ///< wrap-around links (T3D); false = mesh
    /**
     * Nodes per router injection port. The T3D attaches two
     * processing elements to each network port, which makes the
     * minimal congestion two (§4.3).
     */
    int nodesPerPort = 1;
};

/**
 * A periodic down/up schedule for a link or node ("flapping"): from
 * cycle @p at onward, the component is down for the first @p down
 * cycles of every @p period cycles and up for the rest. Unlike a
 * permanent outage the component keeps coming back, so a transport
 * should keep retrying instead of writing the channel off.
 */
struct FlapSpec
{
    Cycles at = 0;     ///< first down cycle
    Cycles period = 0; ///< cycle length of the down/up pattern
    Cycles down = 0;   ///< down time at the start of each period
};

/** One (src, dst, bytes) demand of a traffic pattern. */
struct TrafficDemand
{
    NodeId src;
    NodeId dst;
    Bytes bytes;
};

/** A health-aware route plus how it was obtained. */
struct RouteInfo
{
    std::vector<LinkId> links;
    /** False when no live path exists (partition or dead port). */
    bool ok = true;
    /** True when the route deviates from plain dimension order. */
    bool rerouted = false;
    /** Dead links encountered while probing (the detour's cause). */
    std::vector<LinkId> avoided;
};

/**
 * Result of a static link-load analysis. Besides the §4.3 congestion
 * factor it reports how many demands actually found a live route, so
 * callers can tell "perfectly balanced" (factor 1.0, demands routed)
 * from "nothing is routable at all" (factor 1.0, routed == 0) --
 * previously indistinguishable.
 */
struct CongestionReport
{
    /** Max link load over the busiest node's routed sends, >= 1. */
    double factor = 1.0;
    /** Demands that carried load (non-zero bytes, live route). */
    int routed = 0;
    /** Demands skipped because no live route exists. */
    int unroutable = 0;
    /** Distinct links touched by the routed demands. */
    int touchedLinks = 0;

    /** True when there was traffic to route but none got through. */
    bool allUnroutable() const { return routed == 0 && unroutable > 0; }
};

/**
 * Reusable buffers for analyzeCongestion(). Footprint is
 * O(links touched + demands routed), not O(total links); reusing one
 * scratch avoids re-allocating the load map, send list and route
 * buffers per analysis. Not thread-safe: one scratch per caller.
 */
struct CongestionScratch
{
    std::unordered_map<LinkId, double> load;
    /** (sender, bytes) of each routed demand, summed per node. */
    std::vector<std::pair<NodeId, double>> sent;
    std::vector<LinkId> route;
    RouteInfo healthy;
};

/** Dimension-order-routed topology with link enumeration. */
class Topology
{
  public:
    explicit Topology(const TopologyConfig &config);

    int nodeCount() const { return numNodes; }

    /** Total number of directed links (network + injection/ejection). */
    int linkCount() const { return numLinks; }

    /** Directed network links only (excludes injection/ejection). */
    int networkLinkCount() const { return networkLinksCount; }

    /** Coordinates of @p node. */
    std::vector<int> coords(NodeId node) const;

    /** Node at the given coordinates. */
    NodeId nodeAt(const std::vector<int> &coords) const;

    /**
     * Dimension-order route from @p src to @p dst: the injection
     * link, every traversed network link, and the ejection link, in
     * order. A self-send returns an empty route. Ignores outages;
     * use healthyRoute() for the fault-tolerant path.
     */
    std::vector<LinkId> route(NodeId src, NodeId dst) const;

    /**
     * route() into a caller-owned buffer: @p links is cleared (its
     * capacity kept) and refilled, so hot loops routing many demands
     * reuse one allocation instead of churning a vector per call.
     */
    void route(NodeId src, NodeId dst,
               std::vector<LinkId> &links) const;

    /** Number of network hops between two nodes. */
    int hopCount(NodeId src, NodeId dst) const;

    // Outage model.

    /** Mark a directed link down from cycle @p at onward. */
    void downLink(LinkId link, Cycles at);

    /** Mark a node down (no inject/drain) from cycle @p at onward. */
    void downNode(NodeId node, Cycles at);

    /** Give a directed link a periodic down/up schedule. */
    void flapLink(LinkId link, const FlapSpec &flap);

    /** Give a node a periodic down/up schedule. */
    void flapNode(NodeId node, const FlapSpec &flap);

    /** True once any outage has been registered (even a future one). */
    bool anyOutages() const { return outagesRegistered; }

    /** True when any link or node has a flap schedule. */
    bool anyFlaps() const
    {
        return !linkFlaps.empty() || !nodeFlaps.empty();
    }

    bool linkAlive(LinkId link, Cycles now) const;
    bool nodeAlive(NodeId node, Cycles now) const;

    /**
     * True when @p node is down at @p now but only transiently: it is
     * inside a flap window and not permanently dead, so traffic to it
     * is worth retrying.
     */
    bool nodeRecovers(NodeId node, Cycles now) const;

    /** Number of links / nodes down at @p now. */
    int downedLinks(Cycles now = kNeverDown - 1) const;
    int downedNodes(Cycles now = kNeverDown - 1) const;

    /**
     * Fault-tolerant route at time @p now. Starts from dimension
     * order; when the preferred direction of a dimension crosses a
     * dead link, tries the other way around that dimension's ring
     * (torus only), and falls back to a breadth-first search over
     * live links when no per-dimension detour exists. Injection and
     * ejection ports must be alive for the route to exist. Endpoint
     * liveness is *not* checked here -- the network gates that.
     */
    RouteInfo healthyRoute(NodeId src, NodeId dst, Cycles now) const;

    /**
     * healthyRoute() into a caller-owned RouteInfo: @p info's vectors
     * are cleared (capacity kept) and its flags reset, so hot loops
     * reuse the route buffers instead of churning them per demand.
     */
    void healthyRoute(NodeId src, NodeId dst, Cycles now,
                      RouteInfo &info) const;

    /**
     * Static congestion analysis of a traffic pattern: route every
     * demand, accumulate per-link byte loads, and return the maximum
     * link load divided by the most bytes one node sends -- how many
     * times the busiest link carries what a node injects, unchanged
     * by splitting a node's data into more demands. This matches the
     * paper's notion that "a network link is traversed by twice as
     * much data as it can support" (§4.3).
     *
     * Routes are health-aware at time @p now (default: all
     * registered outages applied), so the congestion factor reflects
     * detoured traffic; unroutable demands are excluded from the
     * load (and counted in the report).
     *
     * Link loads accumulate sparsely over the links the routed
     * demands touch -- footprint O(touched links), not O(total
     * links) -- so the analysis stays cheap at thousands of nodes.
     */
    CongestionReport
    analyzeCongestion(const std::vector<TrafficDemand> &demands,
                      Cycles now, CongestionScratch &scratch) const;

    /** analyzeCongestion() with a local single-use scratch. */
    CongestionReport
    analyzeCongestion(const std::vector<TrafficDemand> &demands,
                      Cycles now = kNeverDown - 1) const;

    /**
     * The congestion factor alone. Returns 1.0 when no demand is
     * routable -- use analyzeCongestion() to tell that apart from a
     * balanced network.
     */
    double congestionOf(const std::vector<TrafficDemand> &demands,
                        Cycles now = kNeverDown - 1) const;

    const TopologyConfig &config() const { return cfg; }

  private:
    /** Directed network link leaving @p node along @p dim. */
    LinkId networkLink(NodeId node, std::size_t dim, bool positive) const;
    LinkId injectionLink(NodeId node) const;
    LinkId ejectionLink(NodeId node) const;

    /** Step from @p coords one hop along @p dim; returns the link. */
    LinkId stepLink(std::vector<int> &coords, std::size_t dim,
                    bool positive) const;

    /** BFS over live network links; empty when unreachable. */
    std::vector<LinkId> bfsRoute(NodeId src, NodeId dst,
                                 Cycles now) const;

    TopologyConfig cfg;
    int numNodes = 0;
    int numLinks = 0;
    int networkLinksCount = 0;
    int injectionPorts = 0;
    bool outagesRegistered = false;
    /** Cycle each link/node goes down (kNeverDown = healthy). */
    std::vector<Cycles> linkDownAt;
    std::vector<Cycles> nodeDownAt;
    /** Sparse periodic down/up schedules (flapping components). */
    std::map<LinkId, FlapSpec> linkFlaps;
    std::map<NodeId, FlapSpec> nodeFlaps;
};

} // namespace ct::sim

#endif // CT_SIM_TOPOLOGY_H
