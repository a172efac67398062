#include <functional>

#include <gtest/gtest.h>

#include "rt/chained_layer.h"
#include "rt/workload.h"
#include "sim/report.h"

namespace {

using namespace ct;
using namespace ct::sim;
using P = core::AccessPattern;

TEST(Report, FreshMachineIsAllZero)
{
    Machine m(t3dConfig({2, 1, 1}));
    auto r = collectReport(m);
    EXPECT_EQ(r.nodes, 2);
    EXPECT_EQ(r.loadHits + r.loadMisses, 0u);
    EXPECT_EQ(r.networkPackets, 0u);
    EXPECT_EQ(r.loadHitRate(), 0.0);
    EXPECT_EQ(r.wireOverhead(), 0.0);
}

TEST(Report, CountersAccumulateDuringARun)
{
    Machine m(t3dConfig({2, 1, 1}));
    auto op = rt::pairExchange(m, P::contiguous(), P::strided(16),
                               4096);
    rt::seedSources(m, op);
    rt::ChainedLayer layer;
    layer.run(m, op);

    auto r = collectReport(m);
    EXPECT_GT(r.loadHits + r.loadMisses, 0u);
    EXPECT_GT(r.dramReads, 0u);
    EXPECT_GT(r.depositPackets, 0u);
    EXPECT_GT(r.networkPackets, 0u);
    EXPECT_GT(r.payloadBytes, 0u);
    // adp framing costs roughly 2x wire bytes per payload byte.
    EXPECT_GT(r.wireOverhead(), 1.5);
    EXPECT_GT(r.rowHitRate(), 0.0);
    EXPECT_LT(r.rowHitRate(), 1.0);
}

TEST(Report, FormatMentionsEverySection)
{
    Machine m(t3dConfig({2, 1, 1}));
    auto text = formatReport(collectReport(m));
    for (const char *section :
         {"cache:", "dram:", "wbq:", "deposit:", "network:"})
        EXPECT_NE(text.find(section), std::string::npos) << section;
}

TEST(Report, EventCoreCountersSurfaced)
{
    Machine m(t3dConfig({2, 1, 1}));
    auto op = rt::pairExchange(m, P::contiguous(), P::contiguous(),
                               1 << 15);
    rt::seedSources(m, op);
    rt::ChainedLayer layer;
    layer.run(m, op);
    auto r = collectReport(m);
    EXPECT_FALSE(r.truncatedRun);
    EXPECT_GT(r.peakPendingEvents, 0u);
    // Credit-based flow control bounds in-flight work: the peak
    // pending-event count must be O(1) in the transfer size, not
    // O(words). 256 is far above the credit window but far below
    // the 512 chunks this transfer pushes through the machine.
    EXPECT_LT(r.peakPendingEvents, 256u);
}

TEST(Report, TruncatedRunIsLoud)
{
    Machine m(t3dConfig({2, 1, 1}));
    std::function<void()> forever = [&]() {
        m.events().scheduleAfter(1, forever);
    };
    m.events().schedule(0, forever);
    m.events().run(10);
    auto r = collectReport(m);
    EXPECT_TRUE(r.truncatedRun);
    auto text = formatReport(r);
    EXPECT_NE(text.find("TRUNCATED RUN"), std::string::npos);
}

TEST(Report, DepositWordsMatchPayload)
{
    Machine m(t3dConfig({2, 1, 1}));
    auto op = rt::pairExchange(m, P::contiguous(), P::contiguous(),
                               2048);
    rt::seedSources(m, op);
    rt::ChainedLayer layer;
    layer.run(m, op);
    auto r = collectReport(m);
    EXPECT_EQ(r.depositWords * 8, r.payloadBytes);
}

} // namespace
