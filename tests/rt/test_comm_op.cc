#include <gtest/gtest.h>

#include "rt/workload.h"

namespace {

using namespace ct;
using namespace ct::rt;
using P = core::AccessPattern;

TEST(CommOp, TotalsAndSenders)
{
    sim::Machine m(sim::t3dConfig({2, 2, 1}));
    util::Rng rng(1);
    CommOp op;
    op.flows.push_back(makeFlow(m, 0, 1, P::contiguous(),
                                P::contiguous(), 100, rng));
    op.flows.push_back(makeFlow(m, 0, 2, P::contiguous(),
                                P::contiguous(), 50, rng));
    op.flows.push_back(makeFlow(m, 1, 0, P::contiguous(),
                                P::contiguous(), 80, rng));
    EXPECT_EQ(op.totalBytes(), (100u + 50u + 80u) * 8u);
    EXPECT_EQ(op.maxBytesPerSender(), 150u * 8u);
    auto demands = op.demands();
    ASSERT_EQ(demands.size(), 3u);
    EXPECT_EQ(demands[0].bytes, 800u);
}

TEST(CommOp, SeedAndVerifyRoundTrip)
{
    sim::Machine m(sim::t3dConfig({2, 1, 1}));
    auto op = pairExchange(m, P::contiguous(), P::strided(4), 64);
    seedSources(m, op);
    // Nothing moved yet: every word should mismatch.
    EXPECT_EQ(verifyDelivery(m, op), 2u * 64u);
    // Move the data by hand.
    for (const auto &flow : op.flows) {
        auto &src = m.node(flow.src).ram();
        auto &dst = m.node(flow.dst).ram();
        for (std::uint64_t i = 0; i < flow.words; ++i)
            dst.writeWord(flow.dstWalk.elementAddr(dst, i),
                          src.readWord(
                              flow.srcWalk.elementAddr(src, i)));
    }
    EXPECT_EQ(verifyDelivery(m, op), 0u);
}

TEST(CommOp, SeedsAreDistinctAcrossFlows)
{
    sim::Machine m(sim::t3dConfig({2, 1, 1}));
    auto op = pairExchange(m, P::contiguous(), P::contiguous(), 16);
    seedSources(m, op);
    auto &r0 = m.node(op.flows[0].src).ram();
    auto &r1 = m.node(op.flows[1].src).ram();
    auto v0 =
        r0.readWord(op.flows[0].srcWalk.elementAddr(r0, 3));
    auto v1 =
        r1.readWord(op.flows[1].srcWalk.elementAddr(r1, 3));
    EXPECT_NE(v0, v1);
}

TEST(FlowGroups, ConsecutiveSamePairMerge)
{
    sim::Machine m(sim::t3dConfig({2, 2, 1}));
    util::Rng rng(1);
    CommOp op;
    op.flows.push_back(makeFlow(m, 0, 1, P::contiguous(),
                                P::contiguous(), 10, rng));
    op.flows.push_back(makeFlow(m, 0, 1, P::contiguous(),
                                P::contiguous(), 20, rng));
    op.flows.push_back(makeFlow(m, 0, 2, P::contiguous(),
                                P::contiguous(), 30, rng));
    op.flows.push_back(makeFlow(m, 0, 1, P::contiguous(),
                                P::contiguous(), 40, rng));
    auto groups = groupFlows(op);
    ASSERT_EQ(groups.size(), 3u);
    EXPECT_EQ(groups[0].totalWords(), 30u);
    EXPECT_EQ(groups[0].flows.size(), 2u);
    EXPECT_EQ(groups[1].totalWords(), 30u);
    EXPECT_EQ(groups[2].totalWords(), 40u);
}

TEST(FlowGroups, LocateMapsOffsets)
{
    sim::Machine m(sim::t3dConfig({2, 1, 1}));
    util::Rng rng(1);
    CommOp op;
    op.flows.push_back(makeFlow(m, 0, 1, P::contiguous(),
                                P::contiguous(), 10, rng));
    op.flows.push_back(makeFlow(m, 0, 1, P::contiguous(),
                                P::contiguous(), 20, rng));
    auto groups = groupFlows(op);
    ASSERT_EQ(groups.size(), 1u);
    auto [pos0, off0] = groups[0].locate(0);
    EXPECT_EQ(pos0, 0u);
    EXPECT_EQ(off0, 0u);
    auto [pos9, off9] = groups[0].locate(9);
    EXPECT_EQ(pos9, 0u);
    EXPECT_EQ(off9, 9u);
    auto [pos10, off10] = groups[0].locate(10);
    EXPECT_EQ(pos10, 1u);
    EXPECT_EQ(off10, 0u);
    auto [pos29, off29] = groups[0].locate(29);
    EXPECT_EQ(pos29, 1u);
    EXPECT_EQ(off29, 19u);
}

TEST(FlowGroups, EmptyFlowsSkipped)
{
    sim::Machine m(sim::t3dConfig({2, 1, 1}));
    util::Rng rng(1);
    CommOp op;
    Flow empty = makeFlow(m, 0, 1, P::contiguous(), P::contiguous(),
                          10, rng);
    empty.words = 0;
    op.flows.push_back(empty);
    EXPECT_TRUE(groupFlows(op).empty());
}

TEST(ActiveSet, MapsOnlyTouchedNodesToDenseSlots)
{
    // Three nodes of a 64-node machine touch the op; the layers size
    // per-node state by these slots, not by nodeCount().
    sim::Machine m(sim::t3dConfig({4, 4, 4}));
    util::Rng rng(3);
    CommOp op;
    op.flows.push_back(makeFlow(m, 60, 2, P::contiguous(),
                                P::contiguous(), 8, rng));
    op.flows.push_back(makeFlow(m, 2, 60, P::contiguous(),
                                P::contiguous(), 8, rng));
    op.flows.push_back(makeFlow(m, 9, 2, P::contiguous(),
                                P::contiguous(), 8, rng));
    ActiveSet active(groupFlows(op));
    EXPECT_EQ(active.count(), 3u);
    EXPECT_EQ(active.nodeList(), (std::vector<NodeId>{2, 9, 60}));
    EXPECT_EQ(active.slot(2), 0u);
    EXPECT_EQ(active.slot(9), 1u);
    EXPECT_EQ(active.slot(60), 2u);
    EXPECT_EXIT((void)active.slot(5), testing::ExitedWithCode(1),
                "not part of this operation");
}

} // namespace
