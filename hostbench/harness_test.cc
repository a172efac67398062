/**
 * @file
 * Tests of the harness arithmetic the benchmark's numbers rest on:
 * percentiles, quartiles as Python's statistics.quantiles gives them,
 * the IQR share, span nesting, self time and concurrent overlap.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <thread>

#include "harness.h"

namespace hostbench {
namespace {

TEST(Percentile, InterpolatesBetweenClosestRanks)
{
    std::vector<double> v{10, 9, 8, 7, 6, 5, 4, 3, 2, 1};
    EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 50), 5.5);
    EXPECT_DOUBLE_EQ(percentile(v, 90), 9.1);
    EXPECT_DOUBLE_EQ(percentile(v, 99), 9.91);
    EXPECT_DOUBLE_EQ(percentile(v, 100), 10.0);
    EXPECT_DOUBLE_EQ(percentile({10, 20}, 25), 12.5);
    EXPECT_DOUBLE_EQ(percentile({7}, 99), 7.0);
    EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
    EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
}

// Expected values from Python: statistics.quantiles(values, n=4).
TEST(Quartiles, MatchPythonStatisticsQuantiles)
{
    auto expect = [](std::vector<double> v, std::array<double, 3> want) {
        std::array<double, 3> got = quartiles(std::move(v));
        for (int i = 0; i < 3; ++i)
            EXPECT_DOUBLE_EQ(got[i], want[i]) << "quartile " << i + 1;
    };
    expect({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, {2.75, 5.5, 8.25});
    expect({4, 1, 3, 2}, {1.25, 2.5, 3.75});
    expect({1, 5}, {0.0, 3.0, 6.0});
    expect({3.5, 1.25, 9.0, 2.0, 7.75}, {1.625, 3.5, 8.375});
}

TEST(Quartiles, IqrShareIsSpreadOverMedian)
{
    EXPECT_DOUBLE_EQ(iqrShare({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}),
                     (8.25 - 2.75) / 5.5);
    EXPECT_DOUBLE_EQ(iqrShare({4, 4, 4, 4}), 0.0);
    EXPECT_DOUBLE_EQ(iqrShare({0, 0, 0}), 0.0);
}

SpanRecord
rec(const char *layer, std::uint64_t id, std::uint64_t parent,
    std::uint64_t start, std::uint64_t end)
{
    return {layer, "call", 0, id, parent, start, end};
}

TEST(SelfTime, SubtractsTheUnionOfChildren)
{
    // root [0,100) with children [10,30) and [20,50) (overlapping: the
    // union is 40) and a grandchild [12,18) inside the first child.
    std::vector<SpanRecord> spans{
        rec("bench", 1, 0, 0, 100), rec("sim", 2, 1, 10, 30),
        rec("rt", 3, 1, 20, 50), rec("core", 4, 2, 12, 18)};
    std::vector<std::uint64_t> self = selfTimes(spans);
    EXPECT_EQ(self[0], 60u);
    EXPECT_EQ(self[1], 14u);
    EXPECT_EQ(self[2], 30u);
    EXPECT_EQ(self[3], 6u);
    EXPECT_EQ(concurrentOverlap(spans), 10u);
    // Self times sum to the root's length plus the overlap.
    EXPECT_EQ(self[0] + self[1] + self[2] + self[3], 100u + 10u);

    std::map<std::string, LayerTime> by_layer = selfTimeByLayer(spans);
    EXPECT_EQ(by_layer["bench"].selfNs, 60u);
    EXPECT_EQ(by_layer["bench"].totalNs, 100u);
    EXPECT_EQ(by_layer["sim"].selfNs, 14u);
    EXPECT_EQ(by_layer["core"].spans, 1u);
}

TEST(SelfTime, ClipsChildrenToTheirParent)
{
    // A child that outlives its parent covers only the parent's part.
    std::vector<SpanRecord> spans{rec("bench", 1, 0, 0, 10),
                                  rec("sim", 2, 1, 5, 20)};
    std::vector<std::uint64_t> self = selfTimes(spans);
    EXPECT_EQ(self[0], 5u);
    EXPECT_EQ(self[1], 15u);
    // The 10 ns that leaked out of the root break the sum identity,
    // which is what the traced run's self-time check catches.
    EXPECT_EQ(self[0] + self[1], 10u + concurrentOverlap(spans) + 10u);
}

TEST(Span, NestsOnOneThreadAndAcrossThreads)
{
    Trace trace(64);
    std::uint64_t root_id = 0, child_id = 0;
    {
        Span root(&trace, "bench", "root", 7, 0);
        root_id = root.id();
        {
            Span child(&trace, "sim", "child");
            child_id = child.id();
            EXPECT_EQ(child.op(), 7);
        }
        std::thread worker([&] {
            Span cell(&trace, "sweep", "cell", 9, root_id);
            Span inner(&trace, "core", "inner");
            EXPECT_EQ(inner.op(), 9);
        });
        worker.join();
    }
    std::vector<SpanRecord> spans = trace.spans();
    ASSERT_EQ(spans.size(), 4u);
    std::map<std::string, SpanRecord> by_name;
    for (const SpanRecord &s : spans)
        by_name[s.name] = s;
    EXPECT_EQ(by_name["child"].parent, root_id);
    EXPECT_EQ(by_name["child"].id, child_id);
    EXPECT_EQ(by_name["cell"].parent, root_id);
    EXPECT_EQ(by_name["inner"].parent, by_name["cell"].id);
    EXPECT_EQ(by_name["root"].parent, 0u);
    EXPECT_LE(by_name["root"].startNs, by_name["child"].startNs);
    EXPECT_GE(by_name["root"].endNs, by_name["cell"].endNs);
    EXPECT_EQ(trace.dropped(), 0u);
}

TEST(Span, NullTraceIsAStopwatch)
{
    Span s(nullptr, "bench", "x");
    double first = s.stop();
    EXPECT_GE(first, 0.0);
    EXPECT_EQ(s.stop(), first);
    EXPECT_EQ(s.id(), 0u);
}

TEST(Trace, CountsDroppedSpans)
{
    Trace trace(2);
    for (int i = 0; i < 5; ++i)
        Span(&trace, "bench", "x", 1, 0);
    EXPECT_EQ(trace.dropped(), 3u);
    EXPECT_EQ(trace.spans().size(), 2u);
}

TEST(Digest, IsOrderAndBoundarySensitive)
{
    Digest a, b, c;
    a.add(std::string_view("ab"));
    a.add(std::string_view("c"));
    b.add(std::string_view("a"));
    b.add(std::string_view("bc"));
    c.add(std::string_view("ab"));
    c.add(std::string_view("c"));
    EXPECT_NE(a.value(), b.value());
    EXPECT_EQ(a.hex(), c.hex());
    Digest d, e, f;
    d.add(0.1);
    e.add(0.1);
    f.add(std::nextafter(0.1, 1.0));
    EXPECT_EQ(d.value(), e.value());
    EXPECT_NE(d.value(), f.value()); // every digit counts
    EXPECT_EQ(d.hex().size(), 16u);
}

} // namespace
} // namespace hostbench
