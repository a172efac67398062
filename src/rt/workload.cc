#include "workload.h"

#include <algorithm>
#include <limits>

#include "core/distribution.h"
#include "rt/layer.h"

#include "util/logging.h"

namespace ct::rt {

using core::AccessPattern;
using core::PatternKind;
using sim::Bytes;

namespace {

constexpr Bytes kBytesMax = std::numeric_limits<Bytes>::max();

Bytes
saturatingAdd(Bytes a, Bytes b)
{
    Bytes sum;
    return __builtin_add_overflow(a, b, &sum) ? kBytesMax : sum;
}

Bytes
saturatingMul(Bytes a, Bytes b)
{
    Bytes product;
    return __builtin_mul_overflow(a, b, &product) ? kBytesMax
                                                  : product;
}

/** NodeRam::alloc()'s bump pointer (64-byte alignment, skew after
 *  each allocation) without the memory; saturates at kBytesMax. */
struct AllocReplay
{
    Bytes skew;
    Bytes next = 0;
    /** End of the last allocation: the highest byte reached. */
    Bytes end = 0;

    void
    alloc(Bytes bytes)
    {
        Bytes base = saturatingAdd(next, 63) & ~Bytes{63};
        end = saturatingAdd(base, bytes);
        next = saturatingAdd(end, skew);
    }

    void
    walk(AccessPattern p, const WalkBytes &bytes)
    {
        alloc(bytes.elements);
        if (p.isIndexed())
            alloc(bytes.index);
    }
};

} // namespace

WalkBytes
walkBytes(AccessPattern p, std::uint64_t words)
{
    WalkBytes bytes;
    Bytes array = saturatingMul(words, 8);
    bytes.elements = p.isStrided() ? saturatingMul(array, p.stride())
                                   : array;
    if (p.isIndexed())
        bytes.index = array;
    return bytes;
}

sim::PatternWalk
allocWalk(sim::Node &node, AccessPattern p, std::uint64_t words,
          util::Rng &rng)
{
    sim::NodeRam &ram = node.ram();
    const WalkBytes bytes = walkBytes(p, words);
    switch (p.kind()) {
      case PatternKind::Contiguous:
        return sim::contiguousWalk(ram.alloc(bytes.elements));
      case PatternKind::Strided:
        return sim::stridedWalk(ram.alloc(bytes.elements), p.stride());
      case PatternKind::Indexed: {
        Addr base = ram.alloc(bytes.elements);
        Addr idx = ram.alloc(bytes.index);
        auto perm = rng.permutation(words);
        for (std::uint64_t i = 0; i < words; ++i)
            ram.writeWord(idx + i * 8, perm[i]);
        return sim::indexedWalk(base, idx);
      }
      case PatternKind::Fixed:
        break;
    }
    util::fatal("allocWalk: pattern must touch memory");
}

sim::PatternWalk
replicateIndexArray(const sim::PatternWalk &walk, std::uint64_t words,
                    const sim::NodeRam &owner_ram, sim::Node &node)
{
    if (!walk.pattern.isIndexed())
        return walk;
    Addr copy = node.ram().alloc(walkBytes(walk.pattern, words).index);
    for (std::uint64_t i = 0; i < words; ++i)
        node.ram().writeWord(copy + i * 8,
                             owner_ram.readWord(walk.indexAddr(i)));
    sim::PatternWalk replica = walk;
    replica.indexBase = copy;
    return replica;
}

Flow
makeFlow(sim::Machine &machine, NodeId src, NodeId dst,
         AccessPattern x, AccessPattern y, std::uint64_t words,
         util::Rng &rng)
{
    Flow flow;
    flow.src = src;
    flow.dst = dst;
    flow.words = words;
    flow.srcWalk = allocWalk(machine.node(src), x, words, rng);
    flow.dstWalk = allocWalk(machine.node(dst), y, words, rng);
    flow.dstWalkOnSender =
        replicateIndexArray(flow.dstWalk, words,
                            machine.node(dst).ram(),
                            machine.node(src));
    return flow;
}

Bytes
pairExchangeNodeBytes(AccessPattern x, AccessPattern y,
                      std::uint64_t words, Bytes alloc_skew,
                      std::uint64_t ring_sets)
{
    // pairExchange() runs makeFlow() for a -> b, then b -> a, so node
    // a allocates its send walk, the replica of b's index array and
    // its receive walk, while b allocates its receive walk, its send
    // walk and the replica of a's index array.
    const WalkBytes send = walkBytes(x, words);
    const WalkBytes recv = walkBytes(y, words);
    AllocReplay a{alloc_skew}, b{alloc_skew};
    a.walk(x, send);
    if (y.isIndexed())
        a.alloc(recv.index);
    a.walk(y, recv);
    b.walk(y, recv);
    b.walk(x, send);
    if (y.isIndexed())
        b.alloc(recv.index);
    // A layer run gives each node one ring per direction per set.
    for (std::uint64_t i = 0; i < 2 * ring_sets; ++i) {
        a.alloc(layerRingBytes);
        b.alloc(layerRingBytes);
    }
    return std::max(a.end, b.end);
}

std::string
exchangeFitError(const sim::MachineConfig &cfg, AccessPattern x,
                 AccessPattern y, std::uint64_t words,
                 const ExchangeLayers &layers)
{
    std::uint64_t per_run = static_cast<std::uint64_t>(
        std::clamp(layers.stagingBuffers, 0, 2));
    if (layers.degradeToPacking && cfg.faults.engineFail > 0.0)
        per_run += 1;
    // A round with no words to move builds no layer.
    std::uint64_t runs = std::min<std::uint64_t>(
        static_cast<std::uint64_t>(layers.rounds),
        std::max<std::uint64_t>(words, 1));
    const sim::NodeConfig &node = cfg.node;
    Bytes need = pairExchangeNodeBytes(x, y, words, node.ramAllocSkew,
                                       runs * per_run);
    if (need <= node.ramBytes)
        return {};
    return std::to_string(words) + " words of " + x.label() + "Q" +
           y.label() + " need " + std::to_string(need) +
           " bytes per node, more than the " +
           std::to_string(node.ramBytes) + "-byte node RAM";
}

sim::PatternWalk
walkForIndices(const std::vector<std::uint64_t> &locals,
               Addr array_base, sim::Node &index_home)
{
    if (locals.empty())
        util::fatal("walkForIndices: empty index list");
    AccessPattern pattern = core::classifyIndices(locals);
    switch (pattern.kind()) {
      case PatternKind::Contiguous:
        return sim::contiguousWalk(array_base + locals.front() * 8);
      case PatternKind::Strided:
        return sim::stridedWalk(array_base + locals.front() * 8,
                                pattern.stride(), pattern.block());
      case PatternKind::Indexed: {
        Addr idx = index_home.ram().alloc(locals.size() * 8);
        for (std::size_t i = 0; i < locals.size(); ++i)
            index_home.ram().writeWord(idx + i * 8, locals[i]);
        return sim::indexedWalk(array_base, idx);
      }
      default:
        break;
    }
    util::panic("walkForIndices: unexpected pattern");
}

CommOp
pairExchange(sim::Machine &machine, AccessPattern x, AccessPattern y,
             std::uint64_t words, std::uint64_t seed)
{
    util::Rng rng(seed);
    CommOp op;
    op.name = x.label() + std::string("Q") + y.label() + " exchange";
    for (NodeId node = 0; node + 1 < machine.nodeCount(); node += 2) {
        op.flows.push_back(
            makeFlow(machine, node, node + 1, x, y, words, rng));
        op.flows.push_back(
            makeFlow(machine, node + 1, node, x, y, words, rng));
    }
    return op;
}

std::vector<sim::TrafficDemand>
pairExchangeDemands(int nodes, Bytes bytes_per_demand)
{
    std::vector<sim::TrafficDemand> demands;
    demands.reserve(static_cast<std::size_t>(nodes));
    for (NodeId node = 0; node + 1 < nodes; node += 2) {
        demands.push_back({node, node + 1, bytes_per_demand});
        demands.push_back({node + 1, node, bytes_per_demand});
    }
    return demands;
}

} // namespace ct::rt
