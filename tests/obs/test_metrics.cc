#include <gtest/gtest.h>

#include "obs/metrics.h"

namespace {

using namespace ct::obs;

TEST(Metrics, CounterBasics)
{
    MetricsRegistry reg;
    Counter c = reg.counter("sim.net.packets");
    EXPECT_TRUE(static_cast<bool>(c));
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    EXPECT_EQ(reg.counterValue("sim.net.packets"), 42u);
}

TEST(Metrics, GetOrCreateReturnsSameCell)
{
    MetricsRegistry reg;
    Counter a = reg.counter("x");
    Counter b = reg.counter("x");
    a.add(3);
    b.add(4);
    EXPECT_EQ(a.value(), 7u);
    EXPECT_EQ(b.value(), 7u);
    EXPECT_EQ(reg.size(), 1u);
}

TEST(Metrics, NamesAreUniqueAcrossKinds)
{
    MetricsRegistry reg;
    reg.counter("metric");
    EXPECT_EQ(reg.kindOf("metric"), MetricKind::Counter);
    EXPECT_DEATH(reg.gauge("metric"), "metric");
}

TEST(Metrics, NullHandleIsASink)
{
    Counter c;
    EXPECT_FALSE(static_cast<bool>(c));
    c.inc();
    c.add(10);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
    Gauge g;
    g.set(5);
    EXPECT_EQ(g.value(), 0);
}

TEST(Metrics, GaugeIsSigned)
{
    MetricsRegistry reg;
    Gauge g = reg.gauge("depth");
    g.set(-7);
    EXPECT_EQ(g.value(), -7);
    g.add(10);
    EXPECT_EQ(g.value(), 3);
    EXPECT_EQ(reg.gaugeValue("depth"), 3);
}

TEST(Metrics, ResetZeroesValuesButKeepsHandles)
{
    MetricsRegistry reg;
    Counter c = reg.counter("c");
    Gauge g = reg.gauge("g");
    c.add(5);
    g.set(-2);
    reg.reset();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(g.value(), 0);
    EXPECT_EQ(reg.size(), 2u);
    // Handles created before the reset still reach the live cells.
    c.inc();
    EXPECT_EQ(reg.counterValue("c"), 1u);
}

TEST(Metrics, HandlesSurviveLaterRegistrations)
{
    MetricsRegistry reg;
    Counter first = reg.counter("first");
    // A deque backs the cells, so growth must not move them.
    for (int i = 0; i < 1000; ++i)
        reg.counter("extra." + std::to_string(i));
    first.add(9);
    EXPECT_EQ(reg.counterValue("first"), 9u);
}

TEST(Metrics, NamesSortedAndHas)
{
    MetricsRegistry reg;
    reg.counter("b");
    reg.counter("a");
    reg.gauge("c");
    EXPECT_TRUE(reg.has("a"));
    EXPECT_FALSE(reg.has("z"));
    EXPECT_EQ(reg.names(),
              (std::vector<std::string>{"a", "b", "c"}));
}

TEST(Metrics, JsonDumpGroupsByKind)
{
    MetricsRegistry reg;
    reg.counter("sim.net.packets").add(3);
    reg.gauge("machine.nodes").set(8);
    std::string json = reg.toJson();
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"sim.net.packets\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"gauges\""), std::string::npos);
    EXPECT_NE(json.find("\"machine.nodes\": 8"), std::string::npos);
    // No metric kind fills it; the group stays so every metrics file
    // keeps its bytes.
    EXPECT_NE(json.find("\"histograms\": {}"), std::string::npos);
}

} // namespace
