#include <gtest/gtest.h>

#include "core/style_registry.h"
#include "rt/resilience.h"
#include "rt/sim_backend.h"
#include "rt/workload.h"

namespace {

using namespace ct;
using namespace ct::rt;
using P = core::AccessPattern;

TEST(Workload, AllocWalkShapes)
{
    sim::Node node(sim::t3dNodeConfig());
    util::Rng rng(5);
    auto c = allocWalk(node, P::contiguous(), 64, rng);
    EXPECT_TRUE(c.pattern.isContiguous());
    auto s = allocWalk(node, P::strided(16), 64, rng);
    EXPECT_EQ(s.pattern.stride(), 16u);
    auto w = allocWalk(node, P::indexed(), 64, rng);
    EXPECT_TRUE(w.pattern.isIndexed());
}

TEST(Workload, IndexedWalkIsPermutation)
{
    sim::Node node(sim::t3dNodeConfig());
    util::Rng rng(5);
    auto w = allocWalk(node, P::indexed(), 128, rng);
    std::set<sim::Addr> addresses;
    for (std::uint64_t i = 0; i < 128; ++i)
        addresses.insert(w.elementAddr(node.ram(), i));
    EXPECT_EQ(addresses.size(), 128u);
    EXPECT_EQ(*addresses.begin(), w.base);
}

TEST(Workload, ReplicateIndexArrayMatchesOriginal)
{
    sim::Machine m(sim::t3dConfig({2, 1, 1}));
    util::Rng rng(9);
    auto w = allocWalk(m.node(1), P::indexed(), 64, rng);
    auto replica =
        replicateIndexArray(w, 64, m.node(1).ram(), m.node(0));
    EXPECT_EQ(replica.base, w.base);
    EXPECT_NE(replica.indexBase, w.indexBase);
    for (std::uint64_t i = 0; i < 64; ++i)
        EXPECT_EQ(replica.elementAddr(m.node(0).ram(), i),
                  w.elementAddr(m.node(1).ram(), i));
}

TEST(Workload, ReplicateIsIdentityForNonIndexed)
{
    sim::Machine m(sim::t3dConfig({2, 1, 1}));
    util::Rng rng(9);
    auto w = allocWalk(m.node(1), P::strided(4), 64, rng);
    auto replica =
        replicateIndexArray(w, 64, m.node(1).ram(), m.node(0));
    EXPECT_EQ(replica.base, w.base);
    EXPECT_EQ(replica.indexBase, w.indexBase);
}

TEST(Workload, PairExchangeCoversAllNodes)
{
    sim::Machine m(sim::t3dConfig({2, 2, 2}));
    auto op = pairExchange(m, P::contiguous(), P::contiguous(), 32);
    EXPECT_EQ(op.flows.size(), 8u); // 4 pairs x 2 directions
    std::set<int> senders;
    for (const auto &flow : op.flows) {
        senders.insert(flow.src);
        EXPECT_EQ(flow.dst ^ 1, flow.src); // partner pairing
    }
    EXPECT_EQ(senders.size(), 8u);
}

TEST(Workload, PairExchangeDemandsMatchTheBuiltOperation)
{
    // The machine-free demand list (the large-N analysis path) must
    // be the same traffic pairExchange() builds with a machine
    // behind it: same pairs, same order, same bytes.
    sim::Machine m(sim::t3dConfig({2, 2, 2}));
    auto op = pairExchange(m, P::contiguous(), P::contiguous(), 32);
    auto built = op.demands();
    auto analytic = pairExchangeDemands(8, 32 * 8);
    ASSERT_EQ(analytic.size(), built.size());
    for (std::size_t i = 0; i < analytic.size(); ++i) {
        EXPECT_EQ(analytic[i].src, built[i].src) << i;
        EXPECT_EQ(analytic[i].dst, built[i].dst) << i;
        EXPECT_EQ(analytic[i].bytes, built[i].bytes) << i;
    }

    // And it reaches machine sizes no Machine could back cheaply.
    auto big = pairExchangeDemands(8192, 8);
    EXPECT_EQ(big.size(), 8192u);
    EXPECT_EQ(big.back().src, 8191);
    EXPECT_EQ(big.back().dst, 8190);
}

TEST(Workload, PairExchangeDeterministicPerSeed)
{
    sim::Machine m1(sim::t3dConfig({2, 1, 1}));
    sim::Machine m2(sim::t3dConfig({2, 1, 1}));
    auto op1 = pairExchange(m1, P::indexed(), P::indexed(), 32, 7);
    auto op2 = pairExchange(m2, P::indexed(), P::indexed(), 32, 7);
    for (std::uint64_t i = 0; i < 32; ++i)
        EXPECT_EQ(op1.flows[0].srcWalk.elementAddr(m1.node(0).ram(), i),
                  op2.flows[0].srcWalk.elementAddr(m2.node(0).ram(),
                                                   i));
}

// pairExchangeNodeBytes() must be the allocator's footprint exactly:
// a node RAM of that size holds the exchange, one byte less does not.

void
expectExactFootprint(sim::MachineConfig cfg, P x, P y,
                     std::uint64_t words)
{
    sim::Bytes need = pairExchangeNodeBytes(
        x, y, words, cfg.node.ramAllocSkew, 0);
    cfg.node.ramBytes = need;
    {
        sim::Machine m(cfg);
        auto op = pairExchange(m, x, y, words);
        EXPECT_EQ(op.flows.size(), 2u);
    }
    EXPECT_TRUE(exchangeFitError(cfg, x, y, words, {}).empty());
    cfg.node.ramBytes = need - 1;
    EXPECT_FALSE(exchangeFitError(cfg, x, y, words, {}).empty());
    EXPECT_EXIT(
        {
            sim::Machine m(cfg);
            pairExchange(m, x, y, words);
        },
        testing::ExitedWithCode(1), "out of memory");
}

TEST(ExchangeFit, NodeBytesMatchTheAllocatorForEveryPatternPair)
{
    const std::vector<P> patterns = {P::contiguous(), P::strided(16),
                                     P::indexed()};
    for (const P &x : patterns) {
        for (const P &y : patterns) {
            SCOPED_TRACE(x.label() + "Q" + y.label());
            expectExactFootprint(sim::t3dConfig({2, 1, 1}), x, y, 100);
            expectExactFootprint(sim::paragonConfig({2, 1}), x, y, 37);
        }
    }
}

TEST(ExchangeFit, NodeBytesCountThePackingLayersStagingRings)
{
    // Packing gives each node a ring per direction, PVM a second one;
    // the reliable transport wraps them without allocating more.
    for (const char *style : {"buffer-packing", "pvm"}) {
        for (bool reliable : {false, true}) {
            SCOPED_TRACE(std::string(style) +
                         (reliable ? " reliable" : ""));
            auto program = core::buildProgram(
                core::MachineId::Paragon, style, P::strided(4),
                P::contiguous());
            ASSERT_TRUE(program);
            ASSERT_GE(program->stagingBuffers, 1);
            if (reliable)
                program = core::withReliability(*program);
            sim::MachineConfig cfg = sim::paragonConfig({2, 1});
            cfg.node.ramBytes = pairExchangeNodeBytes(
                program->x, program->y, 256, cfg.node.ramAllocSkew,
                program->stagingBuffers);
            SimBackend fits(cfg);
            EXPECT_EQ(fits.exchange(*program, 256).corruptWords, 0u);
            cfg.node.ramBytes -= 1;
            EXPECT_EXIT(SimBackend(cfg).exchange(*program, 256),
                        testing::ExitedWithCode(1), "out of memory");
        }
    }
}

TEST(ExchangeFit, RefusesTheOversizedT3dExchangeNamingWordsAndRam)
{
    // Two 32 MiB buffers plus padding on a 64 MiB T3D node.
    std::string why = exchangeFitError(
        sim::t3dConfig(), P::contiguous(), P::contiguous(), 4194304,
        {});
    EXPECT_NE(why.find("4194304 words"), std::string::npos) << why;
    EXPECT_NE(why.find("67108864"), std::string::npos) << why;
    // A little less fits.
    EXPECT_TRUE(exchangeFitError(sim::t3dConfig(), P::contiguous(),
                                 P::contiguous(), 4194304 - 1024, {})
                    .empty());
}

// A reliable run that loses its deposit engine re-runs the exchange
// through buffer packing, whose rings come on top of the walks.

TEST(ExchangeFit, DegradableRunsCountTheirFallbackRingSet)
{
    const P x = P::contiguous(), y = P::strided(2);
    const std::uint64_t words = 256;
    auto program =
        core::buildProgram(core::MachineId::T3d, "chained", x, y);
    ASSERT_TRUE(program);
    ASSERT_EQ(program->stagingBuffers, 0);
    const core::TransferProgram reliable =
        core::withReliability(*program);
    const ExchangeLayers layers{0, true};

    sim::MachineConfig cfg = sim::t3dConfig({2, 1, 1});
    const sim::Bytes walks_only = pairExchangeNodeBytes(
        x, y, words, cfg.node.ramAllocSkew, 0);
    cfg.node.ramBytes = walks_only;
    // Fault-free, nothing can degrade: the walks alone must fit.
    EXPECT_TRUE(exchangeFitError(cfg, x, y, words, layers).empty());

    cfg.faults = sim::FaultSpec::parse("engine_fail=1");
    EXPECT_FALSE(exchangeFitError(cfg, x, y, words, layers).empty());
    cfg.node.ramBytes = pairExchangeNodeBytes(
        x, y, words, cfg.node.ramAllocSkew, 1);
    EXPECT_TRUE(exchangeFitError(cfg, x, y, words, layers).empty());
    SimRun run = SimBackend(cfg).exchange(reliable, words);
    EXPECT_TRUE(run.result.degraded);
    EXPECT_EQ(run.corruptWords, 0u);
    cfg.node.ramBytes -= 1;
    EXPECT_FALSE(exchangeFitError(cfg, x, y, words, layers).empty());
    EXPECT_EXIT(SimBackend(cfg).exchange(reliable, words),
                testing::ExitedWithCode(1), "out of memory");
}

TEST(ExchangeFit, AdaptiveRoundsEachCountTheirRingsAndFallback)
{
    // Each round builds a fresh layer on the same machine, and any
    // round that picks a deposit style can degrade and run a second,
    // packing layer, so every round counts two ring sets.
    const P x = P::contiguous(), y = P::strided(2);
    const std::uint64_t words = 4096;
    const int rounds = 4;
    const ExchangeLayers layers{1, true, rounds};
    sim::MachineConfig cfg = sim::t3dConfig({2, 1, 1});
    cfg.faults = sim::FaultSpec::parse("engine_fail=1");
    cfg.node.ramBytes = pairExchangeNodeBytes(
        x, y, words, cfg.node.ramAllocSkew, 2 * rounds);
    EXPECT_TRUE(exchangeFitError(cfg, x, y, words, layers).empty());
    {
        sim::Machine m(cfg);
        CommOp op = pairExchange(m, x, y, words);
        ResilienceController controller(cfg, x, y);
        AdaptiveResult ar =
            runAdaptiveExchange(m, op, controller, rounds);
        EXPECT_TRUE(ar.degraded);
        EXPECT_EQ(ar.corruptWords, 0u);
    }
    cfg.node.ramBytes -= 1;
    EXPECT_FALSE(exchangeFitError(cfg, x, y, words, layers).empty());

    // A round with no words builds no layer: 2 words in 2^20 rounds
    // are at most 2 layer runs.
    const ExchangeLayers many{1, true, 1 << 20};
    cfg.node.ramBytes =
        pairExchangeNodeBytes(x, y, 2, cfg.node.ramAllocSkew, 2 * 2);
    EXPECT_TRUE(exchangeFitError(cfg, x, y, 2, many).empty());
    cfg.node.ramBytes -= 1;
    EXPECT_FALSE(exchangeFitError(cfg, x, y, 2, many).empty());
}

TEST(ExchangeFit, EngineFailureLowersTheT3dThresholds)
{
    // 1Q2 on a 64 MiB T3D node. Fault-free, 2796156 words is the
    // largest count that fits, as before; a dying deposit engine
    // adds the fallback's ring set, and under the controller every
    // round adds its own.
    const P x = P::contiguous(), y = P::strided(2);
    sim::MachineConfig cfg = sim::t3dConfig();
    auto fits = [&](std::uint64_t words, ExchangeLayers layers) {
        return exchangeFitError(cfg, x, y, words, layers).empty();
    };
    EXPECT_TRUE(fits(2796156, {0, true}));
    EXPECT_FALSE(fits(2796157, {0, true}));

    cfg.faults = sim::FaultSpec::parse("engine_fail=1");
    EXPECT_FALSE(fits(2796156, {0, true}));
    EXPECT_TRUE(fits(2795898, {0, true}));
    EXPECT_FALSE(fits(2795899, {0, true}));
    EXPECT_TRUE(fits(2796156, {0, false})); // raw chained: no fallback

    EXPECT_FALSE(fits(2795800, {1, true, 4}));
    EXPECT_TRUE(fits(2794068, {1, true, 4}));
    EXPECT_FALSE(fits(2794069, {1, true, 4}));
}

TEST(ExchangeFit, ByteSizesSaturateInsteadOfWrapping)
{
    // 2^61 words are 2^64 bytes: wrapped, that is a zero-byte array.
    const std::uint64_t words = 1ull << 61;
    EXPECT_EQ(walkBytes(P::contiguous(), words).elements,
              ~sim::Bytes{0});
    EXPECT_EQ(walkBytes(P::strided(64), 1ull << 58).elements,
              ~sim::Bytes{0});
    EXPECT_EQ(pairExchangeNodeBytes(P::contiguous(), P::contiguous(),
                                    words, 1056, 0),
              ~sim::Bytes{0});
    EXPECT_FALSE(exchangeFitError(sim::t3dConfig(), P::contiguous(),
                                  P::contiguous(), words, {})
                     .empty());
}

} // namespace
