#include <gtest/gtest.h>

#include "sim/chaos.h"
#include "sim/event.h"
#include "sim/fault.h"
#include "sim/topology.h"

namespace {

using namespace ct;
using sim::ChaosSchedule;
using sim::Cycles;
using sim::EventQueue;
using sim::FaultInjector;
using sim::FaultSpec;
using sim::Topology;
using sim::TopologyConfig;
using RC = ChaosSchedule::RateClass;

// --- grammar ---------------------------------------------------------

TEST(ChaosSchedule, ParsesFullSpec)
{
    auto s = ChaosSchedule::parse(
        "seed:9;step:drop:0.01:1000;ramp:corrupt:0:0.05:0:4000;"
        "cascade:link:3:2000:500;flap:node:1:100:4000:1000");
    EXPECT_EQ(s.seed, 9u);
    ASSERT_EQ(s.phases.size(), 2u);
    EXPECT_EQ(s.phases[0].cls, RC::Drop);
    EXPECT_DOUBLE_EQ(s.phases[0].r1, 0.01);
    EXPECT_EQ(s.phases[0].t0, 1000u);
    EXPECT_EQ(s.phases[1].cls, RC::Corrupt);
    EXPECT_DOUBLE_EQ(s.phases[1].r0, 0.0);
    EXPECT_DOUBLE_EQ(s.phases[1].r1, 0.05);
    ASSERT_EQ(s.cascades.size(), 1u);
    EXPECT_FALSE(s.cascades[0].nodes);
    EXPECT_EQ(s.cascades[0].count, 3);
    EXPECT_EQ(s.cascades[0].at, 2000u);
    EXPECT_EQ(s.cascades[0].gap, 500u);
    ASSERT_EQ(s.flaps.size(), 1u);
    EXPECT_TRUE(s.flaps[0].nodes);
    EXPECT_EQ(s.flaps[0].spec.period, 4000u);
    EXPECT_EQ(s.flaps[0].spec.down, 1000u);
    EXPECT_TRUE(s.any());
}

TEST(ChaosSchedule, EmptySpecIsInert)
{
    auto s = ChaosSchedule::parse("");
    EXPECT_FALSE(s.any());
    EXPECT_EQ(s.summary(), "none");
}

TEST(ChaosSchedule, SummaryRoundTrips)
{
    const std::string spec =
        "step:drop:0.01:1000;cascade:link:2:5000:100;seed:3";
    auto s = ChaosSchedule::parse(spec);
    // The summary is canonical: re-parsing it reproduces itself.
    EXPECT_EQ(ChaosSchedule::parse(s.summary()).summary(),
              s.summary());
}

TEST(ChaosScheduleForms, AcceptedFormsKeepTheirValues)
{
    auto s = ChaosSchedule::parse("step:drop:0.01:1000");
    ASSERT_EQ(s.phases.size(), 1u);
    EXPECT_EQ(s.phases[0].r1, 0.01);
    EXPECT_EQ(s.phases[0].t0, 1000u);
    EXPECT_EQ(ChaosSchedule::parse("seed:18446744073709551615").seed,
              18446744073709551615ULL);
    EXPECT_EQ(ChaosSchedule::parse("cascade:node:2147483647:0:1")
                  .cascades.at(0)
                  .count,
              2147483647);
}

TEST(ChaosScheduleForms, SummaryRoundTripsExactly)
{
    // Six significant digits would print 0.00123457 here.
    for (const char *spec :
         {"step:drop:0.0012345678:0;seed:1",
          "ramp:corrupt:0.1234567:0.30000000000000004:5:"
          "18446744073709551615;seed:18446744073709551615",
          "cascade:node:2147483647:0:10;flap:link:3:1:4:2;seed:9"}) {
        ChaosSchedule s = ChaosSchedule::parse(spec);
        EXPECT_EQ(s.summary(), spec);
        EXPECT_EQ(ChaosSchedule::parse(s.summary()).summary(), spec);
    }
}

TEST(ChaosScheduleNegative, RejectsWrappingCountsAndNan)
{
    // A count that wraps int (4294967296 -> 0) would draw no victims
    // and print a summary that does not parse.
    for (const auto &[spec, token] :
         std::vector<std::pair<const char *, const char *>>{
             {"cascade:node:4294967296:0:10", "'4294967296'"},
             {"step:drop:nan:0", "'nan'"},
             {"step:drop:inf:0", "'inf'"},
             {"step:drop:0x1:0", "'0x1'"},
             {"ramp:dup:0:+1:0:5", "'+1'"},
             {"seed:+3", "'+3'"}}) {
        std::string err;
        EXPECT_FALSE(ChaosSchedule::tryParse(spec, &err)) << spec;
        EXPECT_NE(err.find(token), std::string::npos)
            << spec << ": " << err;
    }
}

TEST(ChaosScheduleNegative, RejectsUnknownVerb)
{
    std::string err;
    EXPECT_FALSE(ChaosSchedule::tryParse("sprinkle:drop:0.1:0", &err));
    EXPECT_NE(err.find("sprinkle"), std::string::npos) << err;
}

TEST(ChaosScheduleNegative, RejectsUnknownClass)
{
    std::string err;
    EXPECT_FALSE(ChaosSchedule::tryParse("step:melt:0.1:0", &err));
    EXPECT_NE(err.find("melt"), std::string::npos) << err;
}

TEST(ChaosScheduleNegative, RejectsWrongArity)
{
    std::string err;
    EXPECT_FALSE(ChaosSchedule::tryParse("step:drop:0.1", &err));
    EXPECT_NE(err.find("step"), std::string::npos) << err;
    EXPECT_FALSE(
        ChaosSchedule::tryParse("cascade:link:1:0:0:extra", &err));
    EXPECT_NE(err.find("cascade"), std::string::npos) << err;
}

TEST(ChaosScheduleNegative, RejectsTrailingGarbageInNumbers)
{
    std::string err;
    EXPECT_FALSE(ChaosSchedule::tryParse("step:drop:0.1:12x", &err));
    EXPECT_NE(err.find("12x"), std::string::npos) << err;
    EXPECT_FALSE(ChaosSchedule::tryParse("seed:-4", &err));
    EXPECT_NE(err.find("-4"), std::string::npos) << err;
}

TEST(ChaosScheduleNegative, RejectsOutOfRangeRate)
{
    std::string err;
    EXPECT_FALSE(ChaosSchedule::tryParse("step:drop:1.5:0", &err));
    EXPECT_NE(err.find("1.5"), std::string::npos) << err;
}

TEST(ChaosScheduleNegative, RejectsDegenerateRampAndFlap)
{
    std::string err;
    EXPECT_FALSE(
        ChaosSchedule::tryParse("ramp:drop:0:0.1:500:500", &err));
    EXPECT_NE(err.find("T1 > T0"), std::string::npos) << err;
    EXPECT_FALSE(
        ChaosSchedule::tryParse("flap:node:1:0:1000:1000", &err));
    EXPECT_NE(err.find("DOWN < PERIOD"), std::string::npos) << err;
    EXPECT_FALSE(ChaosSchedule::tryParse("cascade:node:0:0:0", &err));
    EXPECT_NE(err.find("victim"), std::string::npos) << err;
}

TEST(ChaosScheduleDeath, ParseIsFatalOnBadSpec)
{
    EXPECT_EXIT(ChaosSchedule::parse("step:drop:0.1"),
                testing::ExitedWithCode(1), "step");
}

// --- time-varying rates ----------------------------------------------

TEST(ChaosSchedule, StepRateSwitchesAtThreshold)
{
    auto s = ChaosSchedule::parse("step:drop:0.25:1000");
    EXPECT_DOUBLE_EQ(s.rateAt(RC::Drop, 0), 0.0);
    EXPECT_DOUBLE_EQ(s.rateAt(RC::Drop, 999), 0.0);
    EXPECT_DOUBLE_EQ(s.rateAt(RC::Drop, 1000), 0.25);
    EXPECT_DOUBLE_EQ(s.rateAt(RC::Drop, 1u << 30), 0.25);
    EXPECT_DOUBLE_EQ(s.rateAt(RC::Corrupt, 1000), 0.0);
    EXPECT_TRUE(s.hasRate(RC::Drop));
    EXPECT_FALSE(s.hasRate(RC::Corrupt));
}

TEST(ChaosSchedule, RampInterpolatesLinearly)
{
    auto s = ChaosSchedule::parse("ramp:dup:0.1:0.3:1000:2000");
    EXPECT_DOUBLE_EQ(s.rateAt(RC::Dup, 0), 0.0);
    EXPECT_DOUBLE_EQ(s.rateAt(RC::Dup, 1000), 0.1);
    EXPECT_DOUBLE_EQ(s.rateAt(RC::Dup, 1500), 0.2);
    EXPECT_DOUBLE_EQ(s.rateAt(RC::Dup, 2000), 0.3);
    EXPECT_DOUBLE_EQ(s.rateAt(RC::Dup, 9000), 0.3);
}

TEST(ChaosSchedule, OverlappingPhasesAddAndClamp)
{
    auto s = ChaosSchedule::parse(
        "step:drop:0.6:0;step:drop:0.7:100");
    EXPECT_DOUBLE_EQ(s.rateAt(RC::Drop, 50), 0.6);
    EXPECT_DOUBLE_EQ(s.rateAt(RC::Drop, 100), 1.0); // clamped
}

// --- outage timelines ------------------------------------------------

TEST(ChaosSchedule, CascadeDownsDistinctVictimsOnSchedule)
{
    auto s = ChaosSchedule::parse("cascade:link:3:1000:500;seed:5");
    Topology topo(TopologyConfig{{2, 2, 2}, true, 1});
    s.applyOutages(topo);
    EXPECT_EQ(topo.downedLinks(999), 0);
    EXPECT_EQ(topo.downedLinks(1000), 1);
    EXPECT_EQ(topo.downedLinks(1500), 2);
    EXPECT_EQ(topo.downedLinks(2000), 3);
    EXPECT_EQ(topo.downedLinks(1u << 30), 3); // permanent, distinct
}

TEST(ChaosSchedule, SameSeedSameVictims)
{
    auto s = ChaosSchedule::parse("cascade:node:2:0:0;seed:11");
    Topology a(TopologyConfig{{4, 2, 1}, true, 1});
    Topology b(TopologyConfig{{4, 2, 1}, true, 1});
    s.applyOutages(a);
    s.applyOutages(b);
    for (int n = 0; n < a.nodeCount(); ++n)
        EXPECT_EQ(a.nodeAlive(n, 1), b.nodeAlive(n, 1)) << n;
}

TEST(ChaosSchedule, FlappedNodeRecoversEachPeriod)
{
    auto s = ChaosSchedule::parse("flap:node:1:1000:4000:1000");
    Topology topo(TopologyConfig{{2, 1, 1}, true, 1});
    s.applyOutages(topo);
    // Find the flapped node, then walk its duty cycle.
    int victim = -1;
    for (int n = 0; n < topo.nodeCount(); ++n)
        if (!topo.nodeAlive(n, 1000))
            victim = n;
    ASSERT_NE(victim, -1);
    EXPECT_TRUE(topo.nodeAlive(victim, 999));
    EXPECT_FALSE(topo.nodeAlive(victim, 1500));
    EXPECT_TRUE(topo.nodeRecovers(victim, 1500));
    EXPECT_TRUE(topo.nodeAlive(victim, 2500));  // back up
    EXPECT_FALSE(topo.nodeAlive(victim, 5500)); // next period
}

TEST(ChaosScheduleDeath, CascadeWantingTooManyVictimsIsFatal)
{
    auto s = ChaosSchedule::parse("cascade:node:99:0:0");
    Topology topo(TopologyConfig{{2, 1, 1}, true, 1});
    EXPECT_EXIT(s.applyOutages(topo), testing::ExitedWithCode(1),
                "victims");
}

// --- injector integration: replay determinism ------------------------

TEST(ChaosInjector, ScheduleRateAddsToStaticRate)
{
    auto chaos = ChaosSchedule::parse("step:drop:1:0");
    EventQueue clock;
    FaultInjector inj(FaultSpec::parse(""));
    inj.setChaos(&chaos, &clock);
    // Static drop is 0 but the schedule pins it to 1 from cycle 0.
    for (int i = 0; i < 16; ++i)
        EXPECT_TRUE(inj.rollDrop());
}

TEST(ChaosInjector, DrawsAreConsumedEvenAtZeroRate)
{
    // The determinism contract: one draw per roll for every class
    // the schedule mentions, whether or not the current rate is
    // zero. Outcomes therefore depend only on the roll index, never
    // on the simulation time of earlier rolls.
    auto chaos = ChaosSchedule::parse("step:drop:0.5:1000");
    auto rolls = [&chaos](int quiet) {
        EventQueue clock;
        FaultInjector inj(FaultSpec::parse(""));
        inj.setChaos(&chaos, &clock);
        // `quiet` rolls while the schedule rate is still zero...
        for (int i = 0; i < quiet; ++i)
            EXPECT_FALSE(inj.rollDrop());
        // ...then advance past the step and record the rest.
        std::vector<bool> out;
        clock.schedule(2000, [&] {
            for (int i = 0; i < 64; ++i)
                out.push_back(inj.rollDrop());
        });
        clock.run();
        return out;
    };
    // Both injectors performed the same *total* number of draws
    // before the recorded window, so the windows must be identical.
    EXPECT_EQ(rolls(32), rolls(32));
}

TEST(ChaosInjector, ReplayIsBitIdentical)
{
    auto chaos = ChaosSchedule::parse(
        "ramp:drop:0:0.5:0:4000;step:corrupt:0.1:2000;seed:7");
    auto timeline = [&chaos] {
        EventQueue clock;
        FaultInjector inj(FaultSpec::parse("drop=0.01,seed=3"));
        inj.setChaos(&chaos, &clock);
        std::vector<bool> out;
        for (Cycles t = 0; t < 4000; t += 400)
            clock.schedule(t, [&] {
                for (int i = 0; i < 8; ++i) {
                    out.push_back(inj.rollDrop());
                    out.push_back(inj.rollCorrupt());
                }
            });
        clock.run();
        return out;
    };
    EXPECT_EQ(timeline(), timeline());
}

} // namespace
