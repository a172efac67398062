/**
 * @file
 * Heap-budget witnesses for the active-set scaling contract
 * (DESIGN.md §16): analysis, planning and transport state must grow
 * with the *active* communication set, never with machine capacity.
 * This binary replaces global operator new/delete with a counting
 * allocator, so it is kept separate from the other test suites; the
 * budgets below are ~4x the measured allocation, far below what any
 * capacity-proportional (O(N²) channels, dense per-link) version
 * would need at 4096 nodes. The same allocator witnesses the
 * simulator's word path (DESIGN.md §11): once a node is warm, moving
 * words through its memory system allocates nothing; and its packet
 * path: a warm layer run allocates per packet, flow group, RAM page
 * and endpoint, never per word or per hop. And the planning
 * service's request path: a warm request allocates a handful of
 * times, a plan miss about one per built program, never per field or
 * per stage.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "core/planner.h"
#include "rt/chained_layer.h"
#include "rt/packing_layer.h"
#include "rt/reliable_layer.h"
#include "rt/workload.h"
#include "sim/machine.h"
#include "sim/node.h"
#include "svc/service.h"
#include "util/rng.h"

namespace {

std::atomic<std::uint64_t> g_allocated{0};
std::atomic<std::uint64_t> g_allocCalls{0};

void
countAllocation(std::size_t size)
{
    g_allocated.fetch_add(size, std::memory_order_relaxed);
    g_allocCalls.fetch_add(1, std::memory_order_relaxed);
}

/**
 * Frees what the operators below allocate. Out of line, so that g++
 * never inlines a free() into code where it can see the pointer came
 * from operator new (-Wmismatched-new-delete).
 */
[[gnu::noinline]] void
release(void *p) noexcept
{
    std::free(p);
}

} // namespace

void *
operator new(std::size_t size)
{
    countAllocation(size);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    countAllocation(size);
    if (void *p = std::aligned_alloc(static_cast<std::size_t>(align),
                                     size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return ::operator new(size, align);
}

// The nothrow forms (std::stable_sort's temporary buffer uses one)
// must come from this allocator too, or the replaced deletes below
// would free memory the runtime's own operator new handed out.
void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    countAllocation(size);
    return std::malloc(size ? size : 1);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    return ::operator new(size, std::nothrow);
}

void *
operator new(std::size_t size, std::align_val_t align,
             const std::nothrow_t &) noexcept
{
    countAllocation(size);
    return std::aligned_alloc(static_cast<std::size_t>(align),
                              size ? size : 1);
}

void *
operator new[](std::size_t size, std::align_val_t align,
               const std::nothrow_t &) noexcept
{
    return ::operator new(size, align, std::nothrow);
}

void
operator delete(void *p) noexcept
{
    release(p);
}

void
operator delete[](void *p) noexcept
{
    release(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    release(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    release(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    release(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    release(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    release(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    release(p);
}

namespace {

using namespace ct;
using P = core::AccessPattern;

/** Bytes and operator new calls since construction. */
class AllocWindow
{
  public:
    AllocWindow() : start(g_allocated.load()), startCalls(g_allocCalls.load())
    {}
    std::uint64_t bytes() const { return g_allocated.load() - start; }
    std::uint64_t calls() const { return g_allocCalls.load() - startCalls; }

  private:
    std::uint64_t start;
    std::uint64_t startCalls;
};

TEST(ScaleFootprint, AnalyticPlanAt4096NodesStaysSmall)
{
    // The full large-N planning path -- scaled topology, pair-exchange
    // demands, sparse congestion analysis, style ranking -- with no
    // Machine behind it. A dense per-link/per-pair formulation would
    // need hundreds of megabytes here; the active-set path fits in
    // under a megabyte (budget is ~4x the measured ~0.8 MB).
    const int kNodes = 4096;
    AllocWindow window;
    sim::Topology topo(
        sim::configFor(core::MachineId::T3d, kNodes).topology);
    auto demands = rt::pairExchangeDemands(kNodes, 8 * 1024);
    sim::CongestionReport report = topo.analyzeCongestion(demands);
    core::PlanQuery query{core::MachineId::T3d, P::contiguous(),
                          P::contiguous(), report.factor};
    auto plans = core::plan(query);
    std::uint64_t used = window.bytes();

    EXPECT_EQ(report.routed, kNodes);
    EXPECT_EQ(report.unroutable, 0);
    EXPECT_DOUBLE_EQ(report.factor, 2.0); // shared injection ports
    EXPECT_FALSE(plans.empty());
    std::fprintf(stderr, "analytic plan at %d nodes allocated %llu bytes\n",
                 kNodes,
                 static_cast<unsigned long long>(used));
    EXPECT_LT(used, 4u * 1024 * 1024);
}

TEST(ScaleFootprint, ReliableChannelsScaleWithActiveFlows)
{
    // Two flows on a 4096-node machine: the reliable layer must
    // materialize exactly two channels and allocate O(words) during
    // the run (~0.1 MB measured; budget ~4x). The pre-fix dense
    // channel matrix (4096² entries) could not fit any sane budget.
    const int kNodes = 4096;
    const std::uint64_t kWords = 512;
    sim::Machine machine(
        sim::configFor(core::MachineId::T3d, kNodes));
    util::Rng rng(7);
    rt::CommOp op;
    op.name = "scale-2flow";
    op.flows.push_back(rt::makeFlow(machine, 0, 1, P::contiguous(),
                                    P::contiguous(), kWords, rng));
    op.flows.push_back(rt::makeFlow(machine, 1, 0, P::contiguous(),
                                    P::contiguous(), kWords, rng));
    rt::seedSources(machine, op);
    auto layer = rt::makeReliableChained();

    AllocWindow window;
    layer->run(machine, op);
    std::uint64_t used = window.bytes();

    EXPECT_EQ(layer->stats().activeChannels, 2u);
    EXPECT_EQ(layer->stats().retransmits, 0u);
    EXPECT_EQ(rt::verifyDelivery(machine, op), 0u);
    std::fprintf(stderr,
                 "2-flow reliable run on %d nodes allocated %llu bytes\n",
                 kNodes,
                 static_cast<unsigned long long>(used));
    EXPECT_LT(used, 1u * 1024 * 1024);
}

/**
 * Bytes allocated by steady-state word traffic on a warm node of
 * @p config: @p rounds passes of Processor::copy, gatherToPort,
 * scatterFromPort and computeRemoteAddrs over contiguous, strided and
 * indexed walks, then direct MemorySystem loads (data and index) and
 * stores over the same ranges. Every page the walks touch is written
 * first, so page materialization is not counted.
 */
std::uint64_t
wordPathAllocations(const sim::NodeConfig &config, int rounds,
                    std::uint64_t &words)
{
    const std::uint64_t kElems = 4096;
    const std::uint32_t kStride = 4;
    sim::Node node(config);
    sim::NodeRam &ram = node.ram();
    sim::Addr src = ram.alloc(kElems * 8);
    sim::Addr dst = ram.alloc(kElems * kStride * 8);
    sim::Addr idx = ram.alloc(kElems * 8);
    util::Rng rng(11);
    std::vector<std::uint64_t> perm = rng.permutation(kElems);
    for (std::uint64_t i = 0; i < kElems; ++i) {
        ram.writeWord(src + i * 8, i);
        ram.writeWord(idx + i * 8, perm[i]);
    }
    for (std::uint64_t i = 0; i < kElems * kStride; ++i)
        ram.writeWord(dst + i * 8, 0);

    const sim::PatternWalk walks[][2] = {
        {sim::contiguousWalk(src), sim::stridedWalk(dst, kStride)},
        {sim::stridedWalk(dst, kStride), sim::indexedWalk(src, idx)},
        {sim::indexedWalk(src, idx), sim::contiguousWalk(src)},
    };
    sim::Processor &proc = node.processor();
    sim::MemorySystem &mem = node.memory();
    // The port kernels append to the caller's vectors; reserved here,
    // they must never grow inside the window.
    std::vector<std::uint64_t> port_words;
    std::vector<sim::Addr> addrs;
    port_words.reserve(kElems);
    addrs.reserve(kElems);
    util::Cycles now = 0;
    auto pass = [&] {
        std::uint64_t moved = 0;
        for (const auto &walk : walks) {
            now += proc.copy(walk[0], walk[1], 0, kElems, now);
            port_words.clear();
            now += proc.gatherToPort(walk[0], 0, kElems, now, port_words);
            now += proc.scatterFromPort(walk[1], 0, kElems, now,
                                        port_words.data());
            addrs.clear();
            now += proc.computeRemoteAddrs(walk[1], 0, kElems, now, addrs);
            moved += 4 * kElems;
        }
        for (std::uint64_t i = 0; i < kElems; ++i) {
            now += mem.load(src + perm[i] * 8, now);
            now += mem.load(idx + i * 8, now, sim::BusMaster::Processor,
                            false);
            now += mem.store(dst + i * kStride * 8, now);
            moved += 3;
        }
        now += mem.fence(now);
        return moved;
    };
    pass(); // warm-up: caches, queues and the RAM translation cache

    words = 0;
    AllocWindow window;
    for (int r = 0; r < rounds; ++r)
        words += pass();
    return window.bytes();
}

TEST(ScaleFootprint, WordPathAllocatesNothingOnWarmNodes)
{
    // The memory system's queues are fixed-capacity rings sized at
    // construction, so a warm node moves words without allocating.
    struct Case
    {
        const char *name;
        sim::NodeConfig config;
    };
    for (const Case &c : {Case{"t3d", sim::t3dNodeConfig()},
                          Case{"paragon", sim::paragonNodeConfig()}}) {
        std::uint64_t words = 0;
        std::uint64_t used = wordPathAllocations(c.config, 5, words);
        EXPECT_GE(words, 100000u) << c.name;
        EXPECT_EQ(used, 0u) << c.name << ": " << words << " words";
    }
}

/** Pages materialized on all of @p machine's nodes. */
std::uint64_t
residentPages(sim::Machine &machine)
{
    std::uint64_t pages = 0;
    for (int n = 0; n < machine.nodeCount(); ++n)
        pages += machine.node(n).ram().residentPages();
    return pages;
}

/** What one warm layer run allocated, next to what it moved. */
struct PacketPathRun
{
    std::uint64_t calls = 0;   ///< operator new calls
    std::uint64_t packets = 0; ///< packets sent
    std::uint64_t groups = 0;  ///< flow groups (partner streams)
    std::uint64_t nodes = 0;   ///< active endpoints
    std::uint64_t pages = 0;   ///< RAM pages materialized
};

/**
 * Run @p op through @p layer twice on @p machine and count the second
 * run's allocations. The first run warms what a run reuses: the event
 * pool's slabs, the RAM translation caches, the network's buffers.
 */
PacketPathRun
warmRun(sim::Machine &machine, rt::MessageLayer &layer,
        const rt::CommOp &op)
{
    rt::seedSources(machine, op);
    layer.run(machine, op);
    PacketPathRun run;
    std::vector<rt::FlowGroup> groups = rt::groupFlows(op);
    run.groups = groups.size();
    run.nodes = rt::ActiveSet(groups).count();
    std::uint64_t packets = machine.network().stats().packets;
    std::uint64_t pages = residentPages(machine);
    AllocWindow window;
    layer.run(machine, op);
    run.calls = window.calls();
    run.packets = machine.network().stats().packets - packets;
    run.pages = residentPages(machine) - pages;
    EXPECT_EQ(rt::verifyDelivery(machine, op), 0u);
    return run;
}

/**
 * A transpose-shaped operation: every node sends @p flows_per_partner
 * flows of 16 words to each of its next @p partners nodes, reading
 * them contiguously and storing them with stride 8.
 */
rt::CommOp
transposeShapedOp(sim::Machine &machine, int partners,
                  int flows_per_partner)
{
    util::Rng rng(5);
    rt::CommOp op;
    op.name = "transpose-16w";
    int nodes = machine.nodeCount();
    for (int src = 0; src < nodes; ++src)
        for (int k = 1; k <= partners; ++k)
            for (int f = 0; f < flows_per_partner; ++f)
                op.flows.push_back(rt::makeFlow(
                    machine, src, (src + k) % nodes, P::contiguous(),
                    P::strided(8), 16, rng));
    return op;
}

TEST(ScaleFootprint, PacketPathAllocatesPerPacketNotPerWordOrHop)
{
    // A packet owns its payload (and, for address-data pairs, its
    // address list); a flow group owns its flow and prefix lists; a
    // materialized page owns its bytes and its map node; an active
    // endpoint owns a send queue, a receive queue and a node in each
    // of the run's two per-endpoint maps (slots, bytes per sender).
    // Nothing else may allocate per word, per hop or per flow: the
    // sender sizes a packet once per chunk, the network routes into a
    // buffer it keeps, and routing steps coordinates without vectors.
    // The slack covers the run's fixed tables, the growth of its
    // lists and receive queues that outgrow their first four slots.
    const std::uint64_t kSlack = 64;
    for (core::MachineId id :
         {core::MachineId::T3d, core::MachineId::Paragon}) {
        for (bool transpose : {false, true}) {
            for (bool chained : {true, false}) {
                sim::Machine machine(sim::configFor(id, 64));
                rt::CommOp op =
                    transpose ? transposeShapedOp(machine, 8, 4)
                              : rt::pairExchange(machine, P::contiguous(),
                                                 P::contiguous(), 4096);
                std::unique_ptr<rt::MessageLayer> layer;
                if (chained)
                    layer = std::make_unique<rt::ChainedLayer>();
                else
                    layer = std::make_unique<rt::PackingLayer>();
                PacketPathRun run = warmRun(machine, *layer, op);
                // Chained transfers to a strided destination carry an
                // address per word.
                std::uint64_t per_packet = chained && transpose ? 2 : 1;
                std::uint64_t budget = run.packets * per_packet +
                                       2 * run.groups + 4 * run.nodes +
                                       2 * run.pages + kSlack;
                std::fprintf(
                    stderr,
                    "%s %s %s: %llu allocations, %llu packets, %llu "
                    "groups, %llu nodes, %llu pages, budget %llu\n",
                    id == core::MachineId::T3d ? "t3d" : "paragon",
                    transpose ? "transpose" : "pair-exchange",
                    layer->name().c_str(),
                    static_cast<unsigned long long>(run.calls),
                    static_cast<unsigned long long>(run.packets),
                    static_cast<unsigned long long>(run.groups),
                    static_cast<unsigned long long>(run.nodes),
                    static_cast<unsigned long long>(run.pages),
                    static_cast<unsigned long long>(budget));
                EXPECT_GT(run.packets, 0u);
                EXPECT_LE(run.calls, budget)
                    << layer->name() << (transpose ? " transpose" : "");
            }
        }
    }
}

/** The storm workload's plan lines (hostbench/storm.cc): both
 *  machines, its twelve patterns squared, four message sizes. */
std::vector<std::string>
stormPlanLines()
{
    static const char *const patterns[] = {
        "1", "2", "3", "4", "8", "16", "32", "64", "256", "1024", "w",
        "16.2"};
    std::vector<std::string> lines;
    std::uint64_t id = 1000;
    for (const char *machine : {"t3d", "paragon"})
        for (const char *x : patterns)
            for (const char *y : patterns)
                for (std::uint64_t bytes : {0, 512, 8192, 131072}) {
                    std::string line =
                        "{\"id\":" + std::to_string(id++) +
                        ",\"op\":\"plan\",\"machine\":\"" + machine +
                        "\",\"xqy\":\"" + x + "Q" + y + "\"";
                    if (bytes)
                        line += ",\"bytes\":" + std::to_string(bytes);
                    lines.push_back(line + "}");
                }
    return lines;
}

/** operator new calls of one handleLine() call, its response freed. */
std::uint64_t
requestAllocations(svc::PlanService &service, const std::string &line)
{
    AllocWindow window;
    service.handleLine(line);
    return window.calls();
}

TEST(RequestAllocations, WarmRequestsAllocateAlmostNothing)
{
    // A request is one pass over its line (docs/SERVICE.md): the
    // parser views the line in place, the plan cache is probed under
    // one key, and the response renders into one pre-sized buffer. A
    // warm plan hit may allocate its key, the copy of the cached
    // answer it takes out of the cache and its response line; a
    // health check less. A plan miss builds and rates every style's
    // program (a stage list each, a constraint list per packing
    // program), renders the answer and stores it: at most 14 calls.
    const std::uint64_t kHitBudget = 3, kMissBudget = 14;
    svc::ServiceOptions opts;
    opts.workers = 0;
    svc::PlanService service(opts, [](const svc::ServiceResponse &) {});
    const std::string health = R"({"id":1,"op":"health"})";
    // Warm the process-wide statics the first requests build (the
    // style registry, the paper tables) on lines measured below only
    // after their own first call.
    service.handleLine(health);
    service.handleLine(
        R"({"id":2,"op":"plan","machine":"t3d","xqy":"5Q7"})");
    service.handleLine(
        R"({"id":3,"op":"plan","machine":"paragon","xqy":"5Q7"})");

    std::uint64_t health_calls = requestAllocations(service, health);
    std::uint64_t worst_miss = 0, worst_hit = 0;
    for (const std::string &line : stormPlanLines()) {
        std::uint64_t miss = requestAllocations(service, line);
        std::uint64_t hit = requestAllocations(service, line);
        EXPECT_LE(miss, kMissBudget) << line;
        EXPECT_LE(hit, kHitBudget) << line;
        worst_miss = std::max(worst_miss, miss);
        worst_hit = std::max(worst_hit, hit);
    }
    std::fprintf(stderr,
                 "health %llu, worst plan hit %llu, worst plan miss %llu "
                 "allocations\n",
                 static_cast<unsigned long long>(health_calls),
                 static_cast<unsigned long long>(worst_hit),
                 static_cast<unsigned long long>(worst_miss));
    EXPECT_LE(health_calls, kHitBudget);
    const svc::PlanCacheStats stats = service.cacheStats();
    EXPECT_EQ(stats.hits, stats.misses - 2); // the warm-up misses
}

TEST(ScaleFootprint, DimsForNodesSplitsNearEvenly)
{
    using sim::dimsForNodes;
    EXPECT_EQ(dimsForNodes(core::MachineId::T3d, 4096),
              (std::vector<int>{16, 16, 16}));
    EXPECT_EQ(dimsForNodes(core::MachineId::T3d, 8192),
              (std::vector<int>{32, 16, 16}));
    EXPECT_EQ(dimsForNodes(core::MachineId::Paragon, 8192),
              (std::vector<int>{128, 64}));
    EXPECT_EQ(dimsForNodes(core::MachineId::Paragon, 64),
              (std::vector<int>{8, 8}));
    for (int nodes = 8; nodes <= 8192; nodes *= 2) {
        for (core::MachineId id :
             {core::MachineId::T3d, core::MachineId::Paragon}) {
            auto dims = dimsForNodes(id, nodes);
            int product = 1;
            for (int d : dims)
                product *= d;
            EXPECT_EQ(product, nodes);
            // Largest radix first, spread within a factor of two.
            EXPECT_GE(dims.front(), dims.back());
            EXPECT_LE(dims.front(), dims.back() * 2);
        }
    }
}

TEST(ScaleFootprint, ValidScaleNodesEdges)
{
    using sim::validScaleNodes;
    EXPECT_TRUE(validScaleNodes(8));
    EXPECT_TRUE(validScaleNodes(8192));
    EXPECT_FALSE(validScaleNodes(4));
    EXPECT_FALSE(validScaleNodes(16384));
    EXPECT_FALSE(validScaleNodes(100));
    EXPECT_FALSE(validScaleNodes(0));
    EXPECT_FALSE(validScaleNodes(-8));
}

TEST(ScaleFootprintDeath, BadNodeCount)
{
    EXPECT_EXIT(
        (void)sim::dimsForNodes(core::MachineId::T3d, 100),
        testing::ExitedWithCode(1), "power of two");
}

} // namespace
