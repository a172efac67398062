#include <gtest/gtest.h>

#include "rt/chained_layer.h"
#include "rt/packing_layer.h"
#include "rt/reliable_layer.h"
#include "rt/workload.h"

namespace {

using namespace ct;
using namespace ct::rt;
using P = core::AccessPattern;

struct ReliableRun
{
    RunResult result;
    ReliableStats transport;
    sim::NetworkStats network;
    std::uint64_t badWords = 0;
};

ReliableRun
runReliable(sim::MachineConfig cfg, const std::string &faults, P x, P y,
            std::uint64_t words, ReliableOptions opts = {})
{
    cfg.faults = sim::FaultSpec::parse(faults);
    sim::Machine m(cfg);
    auto op = pairExchange(m, x, y, words);
    seedSources(m, op);
    auto layer = makeReliableChained(opts);
    ReliableRun run;
    run.result = layer->run(m, op);
    run.transport = layer->stats();
    run.network = m.network().stats();
    run.badWords = verifyDelivery(m, op);
    return run;
}

// The acceptance bar: with packet loss on the wire, every pattern
// combination still delivers bit-identical destination memory.
class ReliableDelivery
    : public testing::TestWithParam<std::tuple<P, P>>
{};

TEST_P(ReliableDelivery, T3dBitExactUnderDrops)
{
    auto [x, y] = GetParam();
    auto run = runReliable(sim::t3dConfig({2, 1, 1}),
                           "drop=0.05,seed=42", x, y, 300);
    EXPECT_EQ(run.badWords, 0u);
    EXPECT_EQ(run.transport.abandoned, 0u);
    EXPECT_FALSE(run.result.degraded);
}

TEST_P(ReliableDelivery, ParagonBitExactUnderDrops)
{
    auto [x, y] = GetParam();
    auto run = runReliable(sim::paragonConfig({2, 1}),
                           "drop=0.05,seed=42", x, y, 300);
    EXPECT_EQ(run.badWords, 0u);
    EXPECT_EQ(run.transport.abandoned, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, ReliableDelivery,
    testing::Combine(testing::Values(P::contiguous(), P::strided(4),
                                     P::indexed()),
                     testing::Values(P::contiguous(), P::strided(4),
                                     P::indexed())));

TEST(ReliableLayer, FaultFreeRunNeedsNoRetransmissions)
{
    auto run = runReliable(sim::t3dConfig({2, 1, 1}), "",
                           P::strided(8), P::strided(8), 1024);
    EXPECT_EQ(run.badWords, 0u);
    EXPECT_EQ(run.transport.retransmits, 0u);
    EXPECT_EQ(run.transport.checksumFailures, 0u);
    EXPECT_GT(run.transport.dataPackets, 0u);
    EXPECT_GT(run.transport.acksSent, 0u);
}

TEST(ReliableLayer, RecoversFromCorruption)
{
    auto run = runReliable(sim::t3dConfig({2, 1, 1}),
                           "corrupt=0.3,seed=7", P::strided(4),
                           P::strided(4), 2048);
    EXPECT_EQ(run.badWords, 0u);
    EXPECT_GT(run.transport.checksumFailures, 0u);
    EXPECT_GT(run.transport.nacksSent, 0u);
    EXPECT_GT(run.transport.retransmits, 0u);
}

TEST(ReliableLayer, SuppressesNetworkDuplicates)
{
    auto run = runReliable(sim::t3dConfig({2, 1, 1}),
                           "dup=0.2,seed=7", P::strided(4),
                           P::strided(4), 512);
    EXPECT_EQ(run.badWords, 0u);
    EXPECT_GT(run.network.duplicatedPackets, 0u);
    EXPECT_GT(run.transport.duplicatesDropped, 0u);
}

TEST(ReliableLayer, SurvivesCombinedFaultSoup)
{
    auto run = runReliable(
        sim::t3dConfig({2, 1, 1}),
        "drop=0.03,corrupt=0.02,dup=0.05,delay=2000,delay_rate=0.1,"
        "engine_stall=0.01,seed=13",
        P::indexed(), P::strided(4), 400);
    EXPECT_EQ(run.badWords, 0u);
    EXPECT_EQ(run.transport.abandoned, 0u);
}

TEST(ReliableLayer, SameSeedSameRun)
{
    auto cfg = sim::t3dConfig({2, 1, 1});
    const std::string spec = "drop=0.05,corrupt=0.02,dup=0.03,seed=5";
    auto a = runReliable(cfg, spec, P::strided(4), P::indexed(), 600);
    auto b = runReliable(cfg, spec, P::strided(4), P::indexed(), 600);
    EXPECT_EQ(a.badWords, 0u);
    EXPECT_EQ(b.badWords, 0u);
    EXPECT_EQ(a.result.makespan, b.result.makespan);
    EXPECT_EQ(a.transport.retransmits, b.transport.retransmits);
    EXPECT_EQ(a.transport.checksumFailures,
              b.transport.checksumFailures);
    EXPECT_EQ(a.network.droppedPackets, b.network.droppedPackets);
    EXPECT_EQ(a.network.wireBytes, b.network.wireBytes);
}

TEST(ReliableLayer, RetransmissionsShowUpInWireBytes)
{
    auto cfg = sim::t3dConfig({2, 1, 1});
    auto clean = runReliable(cfg, "", P::strided(8), P::strided(8),
                             2048);
    auto lossy = runReliable(cfg, "drop=0.1,seed=21", P::strided(8),
                             P::strided(8), 2048);
    EXPECT_EQ(lossy.badWords, 0u);
    EXPECT_GT(lossy.transport.retransmits, 0u);
    // Every retransmission burns wire bandwidth on top of the clean
    // run's traffic; the counters must account for it.
    EXPECT_GT(lossy.network.wireBytes, clean.network.wireBytes);
    EXPECT_GT(lossy.network.packets, clean.network.packets);
    // Goodput (fixed payload over a longer makespan) must suffer.
    EXPECT_GT(lossy.result.makespan, clean.result.makespan);
}

TEST(ReliableLayer, DegradesToPackingOnEngineFailure)
{
    // Strided receive on the T3D forces address-data-pair framing, so
    // a certain ADP failure hits the very first chunk.
    auto cfg = sim::t3dConfig({2, 1, 1});
    cfg.faults = sim::FaultSpec::parse("engine_fail=1,seed=3");
    sim::Machine m(cfg);
    auto op = pairExchange(m, P::strided(4), P::strided(4), 512);
    seedSources(m, op);
    auto layer = makeReliableChained();
    auto result = layer->run(m, op);
    EXPECT_TRUE(result.degraded);
    EXPECT_TRUE(layer->stats().degraded);
    EXPECT_TRUE(m.node(0).depositEngine().adpFailed() ||
                m.node(1).depositEngine().adpFailed());
    // The fallback rewrote every destination with the right bytes.
    EXPECT_EQ(verifyDelivery(m, op), 0u);
}

TEST(ReliableLayer, DegradedRunMatchesPackingBytes)
{
    auto words = 512u;
    // Degraded run.
    auto cfg = sim::t3dConfig({2, 1, 1});
    cfg.faults = sim::FaultSpec::parse("engine_fail=1,seed=3");
    sim::Machine degraded(cfg);
    auto op1 =
        pairExchange(degraded, P::strided(4), P::strided(4), words);
    seedSources(degraded, op1);
    auto layer = makeReliableChained();
    layer->run(degraded, op1);
    // Plain packing run of the same operation on a healthy machine.
    sim::Machine healthy(sim::t3dConfig({2, 1, 1}));
    auto op2 =
        pairExchange(healthy, P::strided(4), P::strided(4), words);
    seedSources(healthy, op2);
    PackingLayer packing;
    packing.run(healthy, op2);
    // Both destinations hold exactly the seeded data: same bytes.
    EXPECT_EQ(verifyDelivery(degraded, op1), 0u);
    EXPECT_EQ(verifyDelivery(healthy, op2), 0u);
}

TEST(ReliableLayer, DegradationRecoversUnderWireFaultsToo)
{
    auto cfg = sim::t3dConfig({2, 1, 1});
    cfg.faults =
        sim::FaultSpec::parse("engine_fail=1,drop=0.05,seed=9");
    sim::Machine m(cfg);
    auto op = pairExchange(m, P::strided(4), P::strided(4), 400);
    seedSources(m, op);
    auto layer = makeReliableChained();
    auto result = layer->run(m, op);
    EXPECT_TRUE(result.degraded);
    EXPECT_EQ(verifyDelivery(m, op), 0u);
}

TEST(ReliableLayer, PackingOnADeadEngineDoesNotDegrade)
{
    // The ADP-datapath failure outlives the run that caused it. A
    // later packing run on the same machine needs only contiguous
    // deposits, so it must run once, not again through a fallback.
    auto cfg = sim::t3dConfig({2, 1, 1});
    cfg.faults = sim::FaultSpec::parse("engine_fail=1,seed=3");
    sim::Machine m(cfg);
    auto op = pairExchange(m, P::strided(4), P::strided(4), 512);
    seedSources(m, op);
    ASSERT_TRUE(makeReliableChained()->run(m, op).degraded);
    ASSERT_TRUE(m.node(0).depositEngine().adpFailed() ||
                m.node(1).depositEngine().adpFailed());

    auto packing =
        std::make_unique<ReliableLayer>(std::make_unique<PackingLayer>());
    RunResult result = packing->run(m, op);
    EXPECT_FALSE(result.degraded);
    EXPECT_FALSE(packing->stats().degraded);
    EXPECT_EQ(packing->stats().degradations, 0u);
    EXPECT_EQ(verifyDelivery(m, op), 0u);
}

TEST(ReliableLayer, DegradationCanBeDisabled)
{
    auto cfg = sim::t3dConfig({2, 1, 1});
    cfg.faults = sim::FaultSpec::parse("engine_fail=1,seed=3");
    sim::Machine m(cfg);
    auto op = pairExchange(m, P::strided(4), P::strided(4), 256);
    seedSources(m, op);
    ReliableOptions opts;
    opts.degradeToPacking = false;
    auto layer = makeReliableChained(opts);
    auto result = layer->run(m, op);
    EXPECT_FALSE(result.degraded);
    // Without the fallback the refused chunks never land.
    EXPECT_GT(verifyDelivery(m, op), 0u);
}

// Seed sweep: the transport must deliver bit-exactly under a
// combined drop/duplicate/corrupt/delay soup for every RNG seed, not
// just the few the other tests happen to pin. Each seed produces a
// different interleaving of losses, NACKs, reorderings and duplicate
// suppressions, so this sweeps the retransmission state machine far
// more broadly than any single schedule.
TEST(ReliableLayer, SeedSweepBitExactUnderCombinedFaults)
{
    // Correctness must hold for every seed; the recovery-path
    // counters are asserted in aggregate because a single short run
    // may legitimately roll, say, zero duplicates.
    ReliableStats sum;
    for (int seed = 1; seed <= 10; ++seed) {
        auto spec = "drop=0.08,dup=0.08,corrupt=0.05,delay=3000,"
                    "delay_rate=0.1,seed=" +
                    std::to_string(seed);
        auto run = runReliable(sim::t3dConfig({2, 1, 1}), spec,
                               P::strided(4), P::indexed(), 400);
        EXPECT_EQ(run.badWords, 0u) << "seed=" << seed;
        EXPECT_EQ(run.transport.abandoned, 0u) << "seed=" << seed;
        EXPECT_FALSE(run.result.degraded) << "seed=" << seed;
        sum.retransmits += run.transport.retransmits;
        sum.duplicatesDropped += run.transport.duplicatesDropped;
        sum.nacksSent += run.transport.nacksSent;
        sum.checksumFailures += run.transport.checksumFailures;
        sum.outOfOrder += run.transport.outOfOrder;
    }
    // Ten fault soups must have exercised every recovery path.
    EXPECT_GT(sum.retransmits, 0u);
    EXPECT_GT(sum.duplicatesDropped, 0u);
    EXPECT_GT(sum.nacksSent, 0u);
    EXPECT_GT(sum.checksumFailures, 0u);
    EXPECT_GT(sum.outOfOrder, 0u);
}

TEST(ReliableLayer, WatchdogDropsPendingToDeadEndpoint)
{
    // The peer dies early in the exchange: its channel's pending
    // packets must be written off by the watchdog (not retried until
    // the retry budget abandons them as a transport failure).
    auto run = runReliable(sim::t3dConfig({2, 1, 1}),
                           "node_down=1@20000", P::strided(4),
                           P::strided(4), 2048);
    EXPECT_GT(run.transport.deadEndpointDrops, 0u);
    EXPECT_EQ(run.transport.abandoned, 0u);
    EXPECT_TRUE(run.transport.abandonedChannels.empty());
    EXPECT_GT(run.network.deadNodePackets, 0u);
}

TEST(ReliableLayer, NameAdvertisesWrapping)
{
    auto chained = makeReliableChained();
    auto packing =
        std::make_unique<ReliableLayer>(std::make_unique<PackingLayer>());
    EXPECT_EQ(chained->name().rfind("reliable+", 0), 0u);
    EXPECT_EQ(packing->name().rfind("reliable+", 0), 0u);
    EXPECT_NE(chained->name(), packing->name());
}

TEST(ReliableLayer, RejectsBadOptions)
{
    ReliableOptions opts;
    opts.backoff = 0.5;
    EXPECT_EXIT(makeReliableChained(opts),
                testing::ExitedWithCode(1), "backoff");
    opts = ReliableOptions{};
    opts.retransmitTimeout = 0;
    EXPECT_EXIT(makeReliableChained(opts),
                testing::ExitedWithCode(1), "retransmitTimeout");
}

TEST(ReliableLayer, ChannelsMaterializeOnlyForActivePairs)
{
    // Channel state is keyed by the (src, dst) pairs the op touches:
    // a pair exchange on 8 nodes holds exactly 8 directed channels,
    // never a nodeCount² matrix (DESIGN.md §16).
    auto run = runReliable(sim::t3dConfig({2, 2, 2}), "",
                           P::contiguous(), P::contiguous(), 64);
    EXPECT_EQ(run.transport.activeChannels, 8u);
    EXPECT_EQ(run.badWords, 0u);

    // Faults do not inflate the set: retransmissions reuse the
    // already-open channels.
    auto lossy = runReliable(sim::t3dConfig({2, 2, 2}),
                             "drop=0.2,seed=11", P::contiguous(),
                             P::contiguous(), 512);
    EXPECT_EQ(lossy.transport.activeChannels, 8u);
    EXPECT_GT(lossy.transport.retransmits, 0u);
    EXPECT_EQ(lossy.badWords, 0u);
}

TEST(RunResult, ZeroMakespanReportsZeroBandwidth)
{
    sim::Machine m(sim::t3dConfig({2, 1, 1}));
    RunResult r;
    r.makespan = 0;
    r.payloadBytes = 4096;
    r.maxBytesPerSender = 2048;
    EXPECT_EQ(r.perNodeMBps(m), 0.0);
    EXPECT_EQ(r.totalMBps(m), 0.0);
}

} // namespace
