#include <gtest/gtest.h>

#include "core/style_registry.h"
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
    EXPECT_TRUE(exchangeFitError(cfg.node, x, y, words, 0).empty());
    cfg.node.ramBytes = need - 1;
    EXPECT_FALSE(exchangeFitError(cfg.node, x, y, words, 0).empty());
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
        sim::t3dNodeConfig(), P::contiguous(), P::contiguous(),
        4194304, 0);
    EXPECT_NE(why.find("4194304 words"), std::string::npos) << why;
    EXPECT_NE(why.find("67108864"), std::string::npos) << why;
    // A little less fits.
    EXPECT_TRUE(exchangeFitError(sim::t3dNodeConfig(), P::contiguous(),
                                 P::contiguous(), 4194304 - 1024, 0)
                    .empty());
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
    EXPECT_FALSE(exchangeFitError(sim::t3dNodeConfig(), P::contiguous(),
                                  P::contiguous(), words, 0)
                     .empty());
}

} // namespace
