#include <gtest/gtest.h>

#include "rt/chained_layer.h"
#include "rt/collectives.h"
#include "rt/packing_layer.h"
#include "rt/reliable_layer.h"

namespace {

using namespace ct;
using namespace ct::rt;

TEST(Collectives, ShiftCompletes)
{
    sim::Machine m(sim::t3dConfig({2, 2, 2}));
    ChainedLayer layer;
    auto r = shift(m, layer, 512);
    EXPECT_EQ(r.rounds, 1);
    EXPECT_EQ(r.bytesPerNode, 512u * 8u);
    EXPECT_GT(r.perNodeMBps(m), 0.0);
}

TEST(Collectives, ShiftBackwards)
{
    sim::Machine m(sim::t3dConfig({2, 2, 1}));
    ChainedLayer layer;
    auto r = shift(m, layer, 256, -1);
    EXPECT_EQ(r.rounds, 1);
}

TEST(Collectives, AllToAllCompletes)
{
    sim::Machine m(sim::t3dConfig({2, 2, 2}));
    ChainedLayer layer;
    auto r = allToAll(m, layer, 128);
    EXPECT_EQ(r.rounds, 1);
    EXPECT_EQ(r.bytesPerNode, 7u * 128u * 8u);
}

TEST(Collectives, RotationScheduleBeatsNaiveOrder)
{
    // Reference [8]'s point: staggering the partner order avoids a
    // hot receiver and shortens the exchange.
    ChainedLayer layer;
    sim::Machine rotated(sim::t3dConfig({2, 2, 2}));
    sim::Machine naive(sim::t3dConfig({2, 2, 2}));
    auto r = allToAll(rotated, layer, 512);
    auto n = allToAllNaive(naive, layer, 512);
    EXPECT_LT(r.makespan, n.makespan);
}

TEST(Collectives, PhasedAllToAllCompletes)
{
    ChainedLayer layer;
    sim::Machine m(sim::t3dConfig({2, 2, 2}));
    auto r = allToAllPhased(m, layer, 256);
    EXPECT_EQ(r.rounds, 7);
    EXPECT_EQ(r.bytesPerNode, 7u * 256u * 8u);
}

TEST(Collectives, PhasedPaysPerRoundSynchronization)
{
    // Each phase is a contention-free permutation but ends with a
    // full synchronization; at this small scale the seven barriers
    // outweigh the contention they avoid, so the single-shot
    // rotation-scheduled exchange wins. (The paper's reference [8]
    // targets 1024-node tori where the tradeoff flips.)
    ChainedLayer layer;
    sim::Machine phased(sim::t3dConfig({2, 2, 2}));
    sim::Machine rotated(sim::t3dConfig({2, 2, 2}));
    auto ph = allToAllPhased(phased, layer, 512);
    auto ro = allToAll(rotated, layer, 512);
    EXPECT_GT(ph.makespan, ro.makespan);
    // The overhead stays bounded: sync plus pipeline fill/drain per
    // round, not a blow-up.
    EXPECT_LT(ph.makespan, 8 * ro.makespan);
}

TEST(Collectives, BroadcastUsesLogRounds)
{
    sim::Machine m(sim::t3dConfig({2, 2, 2}));
    ChainedLayer layer;
    auto r = broadcast(m, layer, 1024);
    EXPECT_EQ(r.rounds, 3); // log2(8)
}

TEST(Collectives, BroadcastNonPowerOfTwoNodes)
{
    sim::Machine m(sim::paragonConfig({6, 1}));
    ChainedLayer layer;
    auto r = broadcast(m, layer, 256);
    EXPECT_EQ(r.rounds, 3); // ceil(log2(6))
}

TEST(Collectives, GatherReportsRootVolume)
{
    sim::Machine m(sim::t3dConfig({2, 2, 2}));
    ChainedLayer layer;
    auto r = gatherTo(m, layer, 256);
    EXPECT_EQ(r.bytesPerNode, 7u * 256u * 8u);
}

TEST(Collectives, GatherIsRootBottlenecked)
{
    // All flows converge on the root, so doubling the sender count
    // at a fixed per-sender volume nearly doubles the gather time --
    // unlike the shift, whose flows use disjoint resources.
    ChainedLayer layer;
    sim::Machine m4(sim::t3dConfig({4, 1, 1}));
    sim::Machine m8(sim::t3dConfig({4, 2, 1}));
    auto g4 = gatherTo(m4, layer, 2048);
    auto g8 = gatherTo(m8, layer, 2048);
    double growth = static_cast<double>(g8.makespan) /
                    static_cast<double>(g4.makespan);
    EXPECT_GT(growth, 1.6);

    sim::Machine s4(sim::t3dConfig({4, 1, 1}));
    sim::Machine s8(sim::t3dConfig({4, 2, 1}));
    auto h4 = shift(s4, layer, 2048);
    auto h8 = shift(s8, layer, 2048);
    double shift_growth = static_cast<double>(h8.makespan) /
                          static_cast<double>(h4.makespan);
    EXPECT_LT(shift_growth, growth);
}

TEST(Collectives, WorkWithPackingLayerToo)
{
    sim::Machine m(sim::paragonConfig({4, 2}));
    PackingLayer layer;
    EXPECT_GT(shift(m, layer, 512).perNodeMBps(m), 0.0);
    sim::Machine m2(sim::paragonConfig({4, 2}));
    EXPECT_GT(allToAll(m2, layer, 128).perNodeMBps(m2), 0.0);
    sim::Machine m3(sim::paragonConfig({4, 2}));
    EXPECT_EQ(broadcast(m3, layer, 256).rounds, 3);
}

TEST(CollectivesDeath, ZeroShift)
{
    sim::Machine m(sim::t3dConfig({2, 2, 1}));
    ChainedLayer layer;
    EXPECT_EXIT((void)shift(m, layer, 64, 0),
                testing::ExitedWithCode(1), "must move");
}

// -------------------------------------------------------------------
// Acceptance: allToAll on a 4x4x4 torus with one link downed mid-run
// completes with correct payloads and reports the detour.
// -------------------------------------------------------------------
TEST(OutageRecovery, AllToAllSurvivesMidRunLinkFailureOn4x4x4)
{
    const std::uint64_t words = 8;

    // Dry run on a healthy machine to learn the makespan, so the
    // outage can be planted squarely mid-run.
    sim::Machine healthy(sim::t3dConfig({4, 4, 4}));
    auto probe = makeReliableChained();
    auto clean = allToAll(healthy, *probe, words);
    ASSERT_GT(clean.makespan, 0u);
    EXPECT_EQ(clean.reroutedLinks, 0u);
    EXPECT_EQ(clean.lostNodes, 0);
    EXPECT_EQ(clean.lostWords, 0u);

    // Link 0 is node 0's +x channel, on the dimension-order route of
    // every 0 -> (1..2, *, *) flow; kill it a third of the way in.
    auto cfg = sim::t3dConfig({4, 4, 4});
    cfg.faults = sim::FaultSpec::parse(
        "link_down=0@" + std::to_string(clean.makespan / 3));
    sim::Machine m(cfg);
    auto layer = makeReliableChained();
    // allToAll verifies delivery internally (fatal on corruption), so
    // returning at all means every payload landed bit-exactly.
    auto r = allToAll(m, *layer, words);
    EXPECT_GE(r.reroutedLinks, 1u);
    EXPECT_GE(m.network().stats().reroutedPackets, 1u);
    EXPECT_EQ(r.lostNodes, 0);
    EXPECT_EQ(r.lostWords, 0u);
    // The detour costs time, never data.
    EXPECT_GE(r.makespan, clean.makespan);
}

TEST(OutageRecovery, CollectivesSkipDeadNodes)
{
    auto cfg = sim::t3dConfig({2, 2, 2});
    cfg.faults = sim::FaultSpec::parse("node_down=2@0");
    sim::Machine m(cfg);
    auto layer = makeReliableChained();

    auto a2a = allToAll(m, *layer, 32);
    EXPECT_EQ(a2a.lostNodes, 1);
    EXPECT_GT(a2a.lostWords, 0u);

    // A node dead at the start is excluded from the broadcast span
    // entirely, so nothing is sent to it (and nothing lost).
    auto bc = broadcast(m, *layer, 64);
    EXPECT_EQ(bc.lostNodes, 1);
    EXPECT_EQ(bc.lostWords, 0u);

    auto sh = shift(m, *layer, 64);
    EXPECT_EQ(sh.lostNodes, 1);
    // The dead node neither sends to 3 nor receives from 1.
    EXPECT_EQ(sh.lostWords, 128u);
}

} // namespace
