#include <gtest/gtest.h>

#include "apps/irregular.h"
#include "apps/sor.h"
#include "apps/transpose.h"
#include "rt/traffic_planner.h"
#include "rt/workload.h"

namespace {

using namespace ct;
using namespace ct::rt;
using P = core::AccessPattern;

TEST(TrafficPlanner, T3dMinimumCongestionIsTwo)
{
    // Shared network ports: even a one-directional ring shift sees
    // congestion two on the T3D (§4.3), because two PEs share each
    // injection/ejection port.
    sim::Machine m(sim::t3dConfig({8, 1, 1}));
    util::Rng rng(9);
    CommOp ring;
    for (int p = 0; p < 8; ++p)
        ring.flows.push_back(makeFlow(m, p, (p + 1) % 8,
                                      P::contiguous(),
                                      P::contiguous(), 256, rng));
    auto plan = planForTraffic(m, ring);
    EXPECT_GE(plan.congestion, 2.0);
    EXPECT_LE(plan.congestion, 2.5);
}

TEST(TrafficPlanner, ParagonOneWayShiftRunsAtCongestionOne)
{
    // Private ports on the Paragon: a one-directional shift loads
    // every link exactly once.
    sim::Machine m(sim::paragonConfig({8, 1}));
    util::Rng rng(9);
    CommOp line;
    for (int p = 0; p + 1 < 8; ++p)
        line.flows.push_back(makeFlow(m, p, p + 1, P::contiguous(),
                                      P::contiguous(), 256, rng));
    auto plan = planForTraffic(m, line);
    EXPECT_DOUBLE_EQ(plan.congestion, 1.0);
}

TEST(TrafficPlanner, BidirectionalExchangeDoublesEjectionLoad)
{
    // The SOR overlap exchange sends both ways; interior nodes
    // receive from two neighbours through one ejection port, which
    // carries twice one boundary row. Each of them also sends two
    // rows, one per neighbour, so the port runs at exactly the
    // node's own send volume: no link is traversed by more data than
    // its sender injects, the §4.3 congestion of one for a shift on
    // private ports.
    sim::Machine m(sim::paragonConfig({8, 1}));
    apps::SorConfig cfg;
    cfg.n = 256;
    auto w = apps::SorWorkload::create(m, cfg);
    auto plan = planForTraffic(m, w.op());
    EXPECT_DOUBLE_EQ(plan.congestion, 1.0);
}

TEST(TrafficPlanner, TransposeCongestionIsPerNode)
{
    // The §3.4.1 transpose (n = 1024 on 64 nodes) moves one 16 x 16
    // patch to every other node as 16 row flows. Per node, the
    // shared T3D ports carry both PEs' data: congestion two, however
    // many flows a patch is split into.
    sim::Machine m(sim::configFor(core::MachineId::T3d, 64));
    apps::TransposeConfig cfg;
    cfg.n = 1024;
    auto w = apps::TransposeWorkload::create(m, cfg);
    ASSERT_GT(w.op().flows.size(), 64u * 63u);
    auto plan = planForTraffic(m, w.op());
    EXPECT_DOUBLE_EQ(plan.congestion, 2.0);
}

TEST(TrafficPlanner, FanInPatternRaisesCongestion)
{
    sim::Machine m(sim::paragonConfig({8, 1}));
    util::Rng rng(4);
    CommOp fan_in;
    for (int src = 0; src < 7; ++src)
        fan_in.flows.push_back(makeFlow(m, src, 7, P::contiguous(),
                                        P::contiguous(), 256, rng));
    auto plan = planForTraffic(m, fan_in);
    EXPECT_GE(plan.congestion, 6.0);
}

TEST(TrafficPlanner, HigherCongestionLowersEstimates)
{
    sim::Machine shift_machine(sim::paragonConfig({8, 1}));
    apps::SorConfig cfg;
    cfg.n = 256;
    auto sor = apps::SorWorkload::create(shift_machine, cfg);
    auto low = planForTraffic(shift_machine, sor.op());

    sim::Machine fan_machine(sim::paragonConfig({8, 1}));
    util::Rng rng(4);
    CommOp fan_in;
    for (int src = 0; src < 7; ++src)
        fan_in.flows.push_back(makeFlow(fan_machine, src, 7,
                                        P::contiguous(),
                                        P::contiguous(), 256, rng));
    auto high = planForTraffic(fan_machine, fan_in);
    EXPECT_GT(low.strategies.front().estimate,
              high.strategies.front().estimate);
}

TEST(TrafficPlanner, PicksUpDominantPatterns)
{
    sim::Machine m(sim::t3dConfig({2, 2, 1}));
    apps::TransposeConfig cfg;
    cfg.n = 128;
    auto w = apps::TransposeWorkload::create(m, cfg);
    auto plan = planForTraffic(m, w.op());
    EXPECT_TRUE(plan.read.isContiguous());
    EXPECT_TRUE(plan.write.isStrided());
    EXPECT_EQ(plan.write.stride(), 128u);
}

TEST(TrafficPlanner, ChainedRecommendedForIrregularGather)
{
    sim::Machine m(sim::t3dConfig({2, 2, 1}));
    apps::IrregularConfig cfg;
    cfg.n = 1 << 10;
    cfg.locality = 0.3;
    auto w = apps::IrregularGatherWorkload::create(m, cfg);
    auto plan = planForTraffic(m, w.op());
    EXPECT_EQ(plan.strategies.front().program.style,
              core::Style::Chained);
}

TEST(TrafficPlanner, FormatNamesTheOperation)
{
    sim::Machine m(sim::t3dConfig({2, 1, 1}));
    auto op = pairExchange(m, P::contiguous(), P::strided(8), 256);
    auto plan = planForTraffic(m, op);
    auto text = formatTrafficPlan(m, op, plan);
    EXPECT_NE(text.find("analyzed congestion"), std::string::npos);
    EXPECT_NE(text.find("T3D"), std::string::npos);
}

TEST(TrafficPlanner, AllUnroutableIsSurfacedNotSoldAsBalanced)
{
    // Kill both injection ports of a 2-node T3D (the nodes share
    // one): every demand of the exchange loses its only way into the
    // network. The plan must carry the routed/unroutable split and
    // the report must warn, instead of presenting the congestion
    // floor of 1.0 as a balanced fabric.
    sim::Machine m(sim::t3dConfig({2, 1, 1}));
    auto op = pairExchange(m, P::contiguous(), P::contiguous(), 256);
    m.topology().downLink(m.topology().route(0, 1).front(), 0);
    auto plan = planForTraffic(m, op);
    EXPECT_TRUE(plan.allUnroutable());
    EXPECT_EQ(plan.routedDemands, 0);
    EXPECT_EQ(plan.unroutableDemands, 2);
    EXPECT_DOUBLE_EQ(plan.congestion, 1.0); // the ambiguous floor
    auto text = formatTrafficPlan(m, op, plan);
    EXPECT_NE(text.find("WARNING: all 2 demands unroutable"),
              std::string::npos);

    // A healthy machine keeps the report warning-free.
    sim::Machine healthy(sim::t3dConfig({2, 1, 1}));
    auto healthy_op = pairExchange(healthy, P::contiguous(),
                                   P::contiguous(), 256);
    auto healthy_plan = planForTraffic(healthy, healthy_op);
    EXPECT_FALSE(healthy_plan.allUnroutable());
    EXPECT_EQ(healthy_plan.routedDemands, 2);
    auto healthy_text =
        formatTrafficPlan(healthy, healthy_op, healthy_plan);
    EXPECT_EQ(healthy_text.find("WARNING"), std::string::npos);
}

TEST(TrafficPlannerDeath, EmptyOp)
{
    sim::Machine m(sim::t3dConfig({2, 1, 1}));
    CommOp empty;
    EXPECT_EXIT((void)planForTraffic(m, empty),
                testing::ExitedWithCode(1), "empty");
}

} // namespace
