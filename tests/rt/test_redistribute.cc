#include <gtest/gtest.h>

#include <algorithm>

#include "core/style_registry.h"
#include "rt/chained_layer.h"
#include "rt/packing_layer.h"
#include "rt/redistribute.h"
#include "rt/reliable_layer.h"
#include "rt/sim_backend.h"

namespace {

using namespace ct;
using namespace ct::rt;
using D = core::Distribution;

TEST(Redistribute, BlockToCyclicPatterns)
{
    sim::Machine m(sim::t3dConfig({2, 2, 1}));
    auto from = D::block(256, 4);
    auto to = D::cyclic(256, 4);
    auto w = RedistributionWorkload::create(m, from, to);
    EXPECT_EQ(w.op().name, "BLOCK -> CYCLIC");
    auto [x, y] = w.dominantPatterns();
    // The compiler view: strided loads, contiguous remote stores.
    EXPECT_TRUE(x.isStrided());
    EXPECT_EQ(x.stride(), 4u);
    EXPECT_TRUE(y.isContiguous());
}

TEST(Redistribute, CyclicToBlockPatterns)
{
    sim::Machine m(sim::t3dConfig({2, 2, 1}));
    auto w = RedistributionWorkload::create(m, D::cyclic(256, 4),
                                            D::block(256, 4));
    auto [x, y] = w.dominantPatterns();
    EXPECT_TRUE(x.isContiguous());
    EXPECT_TRUE(y.isStrided());
    EXPECT_EQ(y.stride(), 4u);
}

TEST(Redistribute, BlockCyclicGivesBlockStridedPatterns)
{
    sim::Machine m(sim::t3dConfig({2, 2, 1}));
    auto w = RedistributionWorkload::create(
        m, D::block(256, 4), D::blockCyclic(256, 4, 4));
    auto [x, y] = w.dominantPatterns();
    EXPECT_TRUE(x.isStrided());
    EXPECT_EQ(x.block(), 4u);
    EXPECT_EQ(x.stride(), 16u);
    EXPECT_TRUE(y.isContiguous());
}

class RedistributeDelivery
    : public testing::TestWithParam<std::pair<D, D>>
{};

TEST_P(RedistributeDelivery, ChainedBitExact)
{
    auto [from, to] = GetParam();
    sim::Machine m(sim::t3dConfig({2, 2, 1}));
    auto w = RedistributionWorkload::create(m, from, to);
    w.fillInput(m);
    ChainedLayer layer;
    layer.run(m, w.op());
    EXPECT_EQ(w.verify(m), 0u);
}

TEST_P(RedistributeDelivery, PackingBitExact)
{
    auto [from, to] = GetParam();
    sim::Machine m(sim::paragonConfig({4, 1}));
    auto w = RedistributionWorkload::create(m, from, to);
    w.fillInput(m);
    PackingLayer layer;
    layer.run(m, w.op());
    EXPECT_EQ(w.verify(m), 0u);
}

TEST_P(RedistributeDelivery, PvmBitExact)
{
    auto [from, to] = GetParam();
    sim::Machine m(sim::t3dConfig({2, 2, 1}));
    auto w = RedistributionWorkload::create(m, from, to);
    w.fillInput(m);
    auto pvm = lowerProgram(*core::buildProgram(
        core::MachineId::T3d, "pvm", core::AccessPattern::contiguous(),
        core::AccessPattern::contiguous()));
    pvm->run(m, w.op());
    EXPECT_EQ(w.verify(m), 0u);
}

TEST_P(RedistributeDelivery, ReliableChainedBitExactUnderDrops)
{
    auto [from, to] = GetParam();
    auto cfg = sim::t3dConfig({2, 2, 1});
    cfg.faults = sim::FaultSpec::parse("drop=0.05,seed=42");
    sim::Machine m(cfg);
    auto w = RedistributionWorkload::create(m, from, to);
    w.fillInput(m);
    auto layer = makeReliableChained();
    auto r = layer->run(m, w.op());
    EXPECT_EQ(w.verify(m), 0u);
    EXPECT_GT(layer->stats().retransmits, 0u);
    EXPECT_EQ(layer->stats().abandoned, 0u);
    EXPECT_FALSE(r.degraded);
}

INSTANTIATE_TEST_SUITE_P(
    Pairs, RedistributeDelivery,
    testing::Values(
        std::pair(D::block(512, 4), D::cyclic(512, 4)),
        std::pair(D::cyclic(512, 4), D::block(512, 4)),
        std::pair(D::block(512, 4), D::blockCyclic(512, 4, 8)),
        std::pair(D::blockCyclic(512, 4, 8), D::cyclic(512, 4)),
        std::pair(D::blockCyclic(500, 4, 8), D::block(500, 4)),
        std::pair(D::cyclic(509, 4), D::blockCyclic(509, 4, 16))));

TEST(Redistribute, ChainedBeatsPackingForBlockToCyclic)
{
    // The headline result applied to the compiler's most common
    // redistribution.
    auto rate = [&](auto &&layer) {
        sim::Machine m(sim::t3dConfig({2, 2, 1}));
        auto w = RedistributionWorkload::create(
            m, core::Distribution::block(1 << 14, 4),
            core::Distribution::cyclic(1 << 14, 4));
        w.fillInput(m);
        auto r = layer.run(m, w.op());
        EXPECT_EQ(w.verify(m), 0u);
        return r.perNodeMBps(m);
    };
    ChainedLayer chained;
    PackingLayer packing;
    EXPECT_GT(rate(chained), rate(packing));
}

TEST(Redistribute, VerifyCountsEveryWrongWord)
{
    sim::Machine m(sim::t3dConfig({2, 2, 1}));
    auto w = RedistributionWorkload::create(m, D::block(256, 4),
                                            D::cyclic(256, 4));
    w.fillInput(m);
    // Nothing has moved yet: every destination word is still missing,
    // the 64 of the 256 that keep their owner (g / 64 == g % 4)
    // included.
    EXPECT_EQ(w.verify(m), 256u);
    ChainedLayer layer;
    layer.run(m, w.op());
    ASSERT_EQ(w.verify(m), 0u);
    // Clobber two delivered words of the first flow between nodes.
    auto flow_it = std::find_if(
        w.op().flows.begin(), w.op().flows.end(),
        [](const Flow &f) { return f.src != f.dst; });
    ASSERT_NE(flow_it, w.op().flows.end());
    const Flow &flow = *flow_it;
    ASSERT_GE(flow.words, 2u);
    auto &ram = m.node(flow.dst).ram();
    for (std::uint64_t i : {std::uint64_t{0}, flow.words - 1})
        ram.writeWord(flow.dstWalk.elementAddr(ram, i), 0);
    EXPECT_EQ(w.verify(m), 2u);
}

TEST(Redistribute, VerifyChecksElementsThatStayLocal)
{
    sim::Machine m(sim::t3dConfig({2, 2, 1}));
    auto w = RedistributionWorkload::create(m, D::block(256, 4),
                                            D::cyclic(256, 4));
    w.fillInput(m);
    ChainedLayer layer;
    layer.run(m, w.op());
    ASSERT_EQ(w.verify(m), 0u);
    // Clobber one word a node delivered to itself.
    auto flow_it = std::find_if(
        w.op().flows.begin(), w.op().flows.end(),
        [](const Flow &f) { return f.src == f.dst; });
    ASSERT_NE(flow_it, w.op().flows.end());
    auto &ram = m.node(flow_it->dst).ram();
    ram.writeWord(flow_it->dstWalk.elementAddr(ram, 0), 0);
    EXPECT_EQ(w.verify(m), 1u);
}

TEST(RedistributeDeath, MismatchedSizes)
{
    sim::Machine m(sim::t3dConfig({2, 2, 1}));
    EXPECT_EXIT((void)RedistributionWorkload::create(
                    m, D::block(128, 4), D::cyclic(256, 4)),
                testing::ExitedWithCode(1), "mismatch");
}

TEST(RedistributeDeath, WrongNodeCount)
{
    sim::Machine m(sim::t3dConfig({2, 2, 1}));
    EXPECT_EXIT((void)RedistributionWorkload::create(
                    m, D::block(128, 8), D::cyclic(128, 8)),
                testing::ExitedWithCode(1), "span");
}

} // namespace
