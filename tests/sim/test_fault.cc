#include <gtest/gtest.h>

#include "sim/fault.h"
#include "sim/machine.h"

namespace {

using namespace ct;
using sim::FaultInjector;
using sim::FaultSpec;
using sim::Packet;

TEST(FaultSpec, ParsesFullSpec)
{
    auto spec = FaultSpec::parse(
        "drop=1e-3,corrupt=1e-4,dup=1e-5,delay=200,"
        "engine_stall=1e-4,engine_fail=0.5,seed=7");
    EXPECT_DOUBLE_EQ(spec.drop, 1e-3);
    EXPECT_DOUBLE_EQ(spec.corrupt, 1e-4);
    EXPECT_DOUBLE_EQ(spec.dup, 1e-5);
    EXPECT_EQ(spec.delayMax, 200u);
    EXPECT_DOUBLE_EQ(spec.delayRate, 0.01); // default when delay set
    EXPECT_DOUBLE_EQ(spec.engineStall, 1e-4);
    EXPECT_DOUBLE_EQ(spec.engineFail, 0.5);
    EXPECT_EQ(spec.seed, 7u);
    EXPECT_TRUE(spec.any());
}

TEST(FaultSpec, EmptySpecInjectsNothing)
{
    auto spec = FaultSpec::parse("");
    EXPECT_FALSE(spec.any());
    EXPECT_EQ(spec.summary(), "none");
}

TEST(FaultSpec, ExplicitDelayRateWins)
{
    auto spec = FaultSpec::parse("delay=100,delay_rate=0.5");
    EXPECT_DOUBLE_EQ(spec.delayRate, 0.5);
}

TEST(FaultSpec, RejectsUnknownKey)
{
    EXPECT_EXIT(FaultSpec::parse("frobnicate=1"),
                testing::ExitedWithCode(1), "unknown key");
}

TEST(FaultSpec, RejectsOutOfRangeRate)
{
    EXPECT_EXIT(FaultSpec::parse("drop=1.5"),
                testing::ExitedWithCode(1), "outside");
}

TEST(FaultSpec, RejectsMalformedField)
{
    EXPECT_EXIT(FaultSpec::parse("drop"),
                testing::ExitedWithCode(1), "key=value");
}

TEST(FaultSpecNegative, TryParseNamesUnknownKey)
{
    std::string err;
    EXPECT_FALSE(FaultSpec::tryParse("frobnicate=1", &err));
    EXPECT_NE(err.find("frobnicate"), std::string::npos) << err;
}

TEST(FaultSpecNegative, TryParseRejectsTrailingGarbage)
{
    std::string err;
    EXPECT_FALSE(FaultSpec::tryParse("drop=0.1x", &err));
    EXPECT_NE(err.find("0.1x"), std::string::npos) << err;
    EXPECT_FALSE(FaultSpec::tryParse("delay=200cycles", &err));
    EXPECT_NE(err.find("200cycles"), std::string::npos) << err;
}

TEST(FaultSpecNegative, TryParseRejectsNegativeCount)
{
    std::string err;
    EXPECT_FALSE(FaultSpec::tryParse("delay=-1", &err));
    EXPECT_NE(err.find("-1"), std::string::npos) << err;
}

TEST(FaultSpecNegative, TryParseRejectsDuplicateKey)
{
    // A repeated scalar key would silently discard the first value.
    std::string err;
    EXPECT_FALSE(FaultSpec::tryParse("drop=0.1,drop=0.2", &err));
    EXPECT_NE(err.find("duplicate"), std::string::npos) << err;
    // Outage keys are legitimately repeatable.
    EXPECT_TRUE(
        FaultSpec::tryParse("link_down=0@0,link_down=1@5", &err));
}

TEST(FaultSpecNegative, TryParseSucceedsOnValidSpec)
{
    std::string err;
    auto spec = FaultSpec::tryParse("drop=0.25,seed=4", &err);
    ASSERT_TRUE(spec);
    EXPECT_DOUBLE_EQ(spec->drop, 0.25);
    EXPECT_EQ(spec->seed, 4u);
    EXPECT_TRUE(err.empty());
}

// Number forms: pinned before the parsers moved onto util's grammar.

TEST(FaultSpecForms, AcceptedFormsKeepTheirValues)
{
    EXPECT_EQ(FaultSpec::parse("drop=1e-3").drop, 1e-3);
    EXPECT_EQ(FaultSpec::parse("drop=.5").drop, 0.5);
    EXPECT_EQ(FaultSpec::parse("drop=0.5").drop, 0.5);
    EXPECT_EQ(FaultSpec::parse("drop=1").drop, 1.0);
    EXPECT_EQ(FaultSpec::parse("drop=0.1,seed=0").seed, 0u);
    EXPECT_EQ(FaultSpec::parse("drop=0.1,seed=18446744073709551615").seed,
              18446744073709551615ULL);
    auto outage = FaultSpec::parse("node_down=2147483647@7,link_down=3");
    EXPECT_EQ(outage.nodeDown.at(0).id, 2147483647);
    EXPECT_EQ(outage.nodeDown.at(0).at, 7u);
    EXPECT_EQ(outage.linkDown.at(0).at, 0u);
}

TEST(FaultSpecForms, RejectsNanHexSignsAndWrappingIds)
{
    // A lax grammar reads each as some other value: nan runs
    // fault-free, 0x0.8 is hex 0.5, 4294967299 wraps to node 3.
    for (const char *spec :
         {"drop=nan", "drop=0x0.8", "drop=inf", "drop=-0", "drop=+0.5",
          "node_down=4294967299@0", "node_down=-1@0", "node_down=1@-5",
          "node_down=1@", "seed=+3", "seed=18446744073709551616",
          "engine_stall=0.1,engine_stall_cycles=0"}) {
        std::string err;
        EXPECT_FALSE(FaultSpec::tryParse(spec, &err)) << spec;
        std::string value(spec);
        value = value.substr(value.rfind('=') + 1);
        EXPECT_NE(err.find("'" + value), std::string::npos)
            << spec << ": " << err;
    }
}

TEST(FaultSpecForms, SummaryRoundTripsExactly)
{
    for (const char *spec :
         {"drop=0.3000001,seed=1",
          "drop=0.1,corrupt=0.30000000000000004,"
          "seed=18446744073709551615",
          "delay=9,delay_rate=0.123456789,seed=2",
          "engine_stall=0.5,engine_stall_cycles=7,seed=3",
          "link_down=2147483647@0,node_down=3@100,seed=4"}) {
        FaultSpec s = FaultSpec::parse(spec);
        EXPECT_EQ(s.summary(), spec);
        EXPECT_EQ(FaultSpec::parse(s.summary()).summary(), spec);
    }
    // Six-digit rates keep the bytes they always had.
    EXPECT_EQ(FaultSpec::parse("drop=1e-3,dup=0.05").summary(),
              "drop=0.001,dup=0.05,seed=1");
}

TEST(FaultInjector, SameSeedSameSchedule)
{
    auto spec = FaultSpec::parse(
        "drop=0.1,corrupt=0.05,dup=0.02,delay=50,delay_rate=0.2,"
        "engine_stall=0.1,engine_fail=0.01,seed=99");
    FaultInjector a(spec), b(spec);
    for (int i = 0; i < 2000; ++i) {
        EXPECT_EQ(a.rollDrop(), b.rollDrop());
        EXPECT_EQ(a.rollCorrupt(), b.rollCorrupt());
        EXPECT_EQ(a.rollDuplicate(), b.rollDuplicate());
        EXPECT_EQ(a.rollDelay(), b.rollDelay());
        EXPECT_EQ(a.rollEngineStall(), b.rollEngineStall());
        EXPECT_EQ(a.rollEngineFailure(), b.rollEngineFailure());
    }
    EXPECT_EQ(a.stats().drops, b.stats().drops);
    EXPECT_EQ(a.stats().corruptions, b.stats().corruptions);
    EXPECT_EQ(a.stats().delayCycles, b.stats().delayCycles);
}

TEST(FaultInjector, DifferentSeedsDiverge)
{
    auto spec1 = FaultSpec::parse("drop=0.5,seed=1");
    auto spec2 = FaultSpec::parse("drop=0.5,seed=2");
    FaultInjector a(spec1), b(spec2);
    int differing = 0;
    for (int i = 0; i < 1000; ++i)
        differing += a.rollDrop() != b.rollDrop();
    EXPECT_GT(differing, 100);
}

TEST(FaultInjector, RatesAreApproximatelyHonored)
{
    auto spec = FaultSpec::parse("drop=0.25,seed=3");
    FaultInjector inj(spec);
    for (int i = 0; i < 10000; ++i)
        inj.rollDrop();
    EXPECT_GT(inj.stats().drops, 2200u);
    EXPECT_LT(inj.stats().drops, 2800u);
}

TEST(FaultInjector, CorruptionFlipsExactlyOneBit)
{
    auto spec = FaultSpec::parse("corrupt=1,seed=5");
    FaultInjector inj(spec);
    Packet p;
    p.words = {0, 0, 0, 0};
    sim::sealChecksum(p);
    inj.corruptPayload(p);
    int set_bits = 0;
    for (std::uint64_t w : p.words)
        set_bits += __builtin_popcountll(w);
    EXPECT_EQ(set_bits, 1);
    EXPECT_FALSE(sim::checksumOk(p));
}

TEST(FaultInjector, CorruptionOfEmptyPacketIsNoop)
{
    auto spec = FaultSpec::parse("corrupt=1,seed=5");
    FaultInjector inj(spec);
    Packet p;
    sim::sealChecksum(p);
    inj.corruptPayload(p);
    EXPECT_TRUE(sim::checksumOk(p));
}

// The sealed checksum is part of every simulated run: pin its values
// so a faster CRC cannot change what the transport computes.

TEST(PacketChecksum, DataOnlyPayloadSumIsPinned)
{
    Packet p;
    p.framing = sim::Framing::DataOnly;
    p.destBase = 0x4000;
    for (std::uint64_t i = 0; i < 64; ++i)
        p.words.push_back(0x0123456789abcdefULL * (i + 1));
    EXPECT_EQ(sim::payloadSum(p), 0x5344E909u);
}

TEST(PacketChecksum, AddrDataPairPayloadSumIsPinned)
{
    Packet p;
    p.framing = sim::Framing::AddrDataPair;
    for (std::uint64_t i = 0; i < 13; ++i) {
        p.words.push_back(~i * 0x9E3779B97F4A7C15ULL);
        p.addrs.push_back(0x10000 + i * 136);
    }
    EXPECT_EQ(sim::payloadSum(p), 0xA058BA29u);
}

// Network integration: the injector hooks into the wire path.

Packet
makePacket(sim::NodeId src, sim::NodeId dst, std::size_t words)
{
    Packet p;
    p.src = src;
    p.dst = dst;
    p.words.assign(words, 0x0123456789abcdefULL);
    sim::sealChecksum(p);
    return p;
}

TEST(FaultNetwork, CertainDropNeverDelivers)
{
    auto cfg = sim::t3dConfig({2, 1, 1});
    cfg.faults = FaultSpec::parse("drop=1,seed=11");
    sim::Machine m(cfg);
    int delivered = 0;
    m.network().setDeliver(
        [&](Packet &&, sim::Cycles) { ++delivered; });
    for (int i = 0; i < 10; ++i)
        m.network().send(makePacket(0, 1, 16));
    m.events().run();
    EXPECT_EQ(delivered, 0);
    EXPECT_EQ(m.network().stats().droppedPackets, 10u);
    // Dropped packets still burned wire bandwidth.
    EXPECT_GT(m.network().stats().wireBytes, 0u);
}

TEST(FaultNetwork, CertainDuplicationDeliversTwice)
{
    auto cfg = sim::t3dConfig({2, 1, 1});
    cfg.faults = FaultSpec::parse("dup=1,seed=11");
    sim::Machine m(cfg);
    int delivered = 0;
    m.network().setDeliver(
        [&](Packet &&, sim::Cycles) { ++delivered; });
    m.network().send(makePacket(0, 1, 16));
    m.events().run();
    EXPECT_EQ(delivered, 2);
    EXPECT_EQ(m.network().stats().duplicatedPackets, 1u);
    EXPECT_EQ(m.network().stats().packets, 2u);
}

TEST(FaultNetwork, DelayPostponesArrival)
{
    auto base_cfg = sim::t3dConfig({2, 1, 1});
    sim::Cycles clean_arrival = 0;
    {
        sim::Machine m(base_cfg);
        m.network().setDeliver([&](Packet &&, sim::Cycles t) {
            clean_arrival = t;
        });
        m.network().send(makePacket(0, 1, 16));
        m.events().run();
    }
    auto cfg = base_cfg;
    cfg.faults =
        FaultSpec::parse("delay=5000,delay_rate=1,seed=11");
    sim::Machine m(cfg);
    sim::Cycles delayed_arrival = 0;
    m.network().setDeliver([&](Packet &&, sim::Cycles t) {
        delayed_arrival = t;
    });
    m.network().send(makePacket(0, 1, 16));
    m.events().run();
    EXPECT_GT(delayed_arrival, clean_arrival);
    EXPECT_EQ(m.network().stats().delayedPackets, 1u);
}

TEST(FaultNetwork, LocalDeliveryBypassesWireFaults)
{
    auto cfg = sim::t3dConfig({2, 1, 1});
    cfg.faults = FaultSpec::parse("drop=1,seed=11");
    sim::Machine m(cfg);
    int delivered = 0;
    m.network().setDeliver(
        [&](Packet &&, sim::Cycles) { ++delivered; });
    m.network().send(makePacket(0, 0, 16));
    m.events().run();
    EXPECT_EQ(delivered, 1);
    EXPECT_EQ(m.network().stats().droppedPackets, 0u);
}

TEST(FaultNetwork, CorruptionBreaksChecksumInFlight)
{
    auto cfg = sim::t3dConfig({2, 1, 1});
    cfg.faults = FaultSpec::parse("corrupt=1,seed=11");
    sim::Machine m(cfg);
    bool checksum_ok = true;
    m.network().setDeliver([&](Packet &&p, sim::Cycles) {
        checksum_ok = sim::checksumOk(p);
    });
    m.network().send(makePacket(0, 1, 16));
    m.events().run();
    EXPECT_FALSE(checksum_ok);
    EXPECT_EQ(m.network().stats().corruptedPackets, 1u);
}

// Config validation (fatal with a clear message, not NaN downstream).

TEST(MachineValidation, RejectsNonPositiveWireBandwidth)
{
    auto cfg = sim::t3dConfig({2, 1, 1});
    cfg.network.wireBytesPerCycle = 0.0;
    EXPECT_EXIT(sim::Machine m(cfg), testing::ExitedWithCode(1),
                "wireBytesPerCycle");
}

TEST(MachineValidation, RejectsNonPositiveClock)
{
    auto cfg = sim::t3dConfig({2, 1, 1});
    cfg.clockHz = -1.0;
    EXPECT_EXIT(sim::Machine m(cfg), testing::ExitedWithCode(1),
                "clockHz");
}

TEST(MachineValidation, RejectsEmptyTopology)
{
    auto cfg = sim::t3dConfig({2, 1, 1});
    cfg.topology.dims.clear();
    EXPECT_EXIT(sim::Machine m(cfg), testing::ExitedWithCode(1),
                "dimension");
}

TEST(MachineValidation, RejectsZeroDimension)
{
    auto cfg = sim::t3dConfig({2, 1, 1});
    cfg.topology.dims = {2, 0, 1};
    EXPECT_EXIT(sim::Machine m(cfg), testing::ExitedWithCode(1),
                "dimension");
}

TEST(MachineValidation, RejectsZeroRam)
{
    auto cfg = sim::t3dConfig({2, 1, 1});
    cfg.node.ramBytes = 0;
    EXPECT_EXIT(sim::Machine m(cfg), testing::ExitedWithCode(1),
                "ramBytes");
}

TEST(MachineValidation, RejectsTinyAdpFraming)
{
    auto cfg = sim::t3dConfig({2, 1, 1});
    cfg.network.adpBytesPerWord = 4;
    EXPECT_EXIT(sim::Machine m(cfg), testing::ExitedWithCode(1),
                "adpBytesPerWord");
}

TEST(MachineValidation, AcceptsStockConfigs)
{
    sim::Machine t3d(sim::t3dConfig({2, 1, 1}));
    sim::Machine paragon(sim::paragonConfig({2, 1}));
    EXPECT_EQ(t3d.nodeCount(), 2);
    EXPECT_EQ(paragon.nodeCount(), 2);
}

} // namespace
