#include <gtest/gtest.h>

#include "sim/measure.h"

namespace {

using namespace ct::sim;
using P = ct::core::AccessPattern;

// Calibration tolerance against the paper's published figures. The
// simulator reproduces mechanisms, not exact numbers; EXPERIMENTS.md
// records the achieved values.
constexpr double tolerance = 0.40;

void
expectNear(double measured, double paper, const char *what)
{
    EXPECT_LT(std::abs(measured - paper) / paper, tolerance)
        << what << ": sim " << measured << " vs paper " << paper;
}

// Smaller word counts keep the suite fast; throughputs converge well
// before 2^13 elements.
constexpr std::uint64_t words = 1 << 13;

TEST(MeasureT3d, Table1LocalCopies)
{
    auto cfg = t3dConfig();
    expectNear(measureLocalCopy(cfg, P::contiguous(), P::contiguous(),
                                words),
               93.0, "1C1");
    expectNear(measureLocalCopy(cfg, P::contiguous(), P::strided(64),
                                words),
               67.9, "1C64");
    expectNear(measureLocalCopy(cfg, P::strided(64), P::contiguous(),
                                words),
               33.3, "64C1");
    expectNear(measureLocalCopy(cfg, P::contiguous(), P::indexed(),
                                words),
               38.5, "1Cw");
    expectNear(measureLocalCopy(cfg, P::indexed(), P::contiguous(),
                                words),
               32.9, "wC1");
}

TEST(MeasureT3d, Table1Orderings)
{
    auto cfg = t3dConfig();
    double c11 = measureLocalCopy(cfg, P::contiguous(),
                                  P::contiguous(), words);
    double c1_64 = measureLocalCopy(cfg, P::contiguous(),
                                    P::strided(64), words);
    double c64_1 = measureLocalCopy(cfg, P::strided(64),
                                    P::contiguous(), words);
    double c1w = measureLocalCopy(cfg, P::contiguous(), P::indexed(),
                                  words);
    double cw1 = measureLocalCopy(cfg, P::indexed(), P::contiguous(),
                                  words);
    // Strided stores beat strided loads (write-back queue).
    EXPECT_GT(c1_64, c64_1);
    // Indexed stores beat indexed loads.
    EXPECT_GT(c1w, cw1);
    // Contiguous is fastest.
    EXPECT_GT(c11, c1_64);
    EXPECT_GT(c11, c1w);
}

TEST(MeasureT3d, Table2Sends)
{
    auto cfg = t3dConfig();
    expectNear(measureLoadSend(cfg, P::contiguous(), words), 126.0,
               "1S0");
    expectNear(measureLoadSend(cfg, P::strided(64), words), 35.0,
               "64S0");
    expectNear(measureLoadSend(cfg, P::indexed(), words), 32.0, "wS0");
    EXPECT_FALSE(measureFetchSend(cfg, words).has_value());
}

TEST(MeasureT3d, Table3Receives)
{
    auto cfg = t3dConfig();
    EXPECT_FALSE(
        measureReceiveStore(cfg, P::contiguous(), words).has_value());
    auto d1 = measureReceiveDeposit(cfg, P::contiguous(), words);
    auto d64 = measureReceiveDeposit(cfg, P::strided(64), words);
    auto dw = measureReceiveDeposit(cfg, P::indexed(), words);
    ASSERT_TRUE(d1 && d64 && dw);
    expectNear(*d1, 142.0, "0D1");
    expectNear(*d64, 52.0, "0D64");
    expectNear(*dw, 52.0, "0Dw");
}

TEST(MeasureParagon, Table1LocalCopies)
{
    auto cfg = paragonConfig();
    expectNear(measureLocalCopy(cfg, P::contiguous(), P::contiguous(),
                                words),
               67.6, "1C1");
    expectNear(measureLocalCopy(cfg, P::contiguous(), P::strided(64),
                                words),
               27.6, "1C64");
    expectNear(measureLocalCopy(cfg, P::strided(64), P::contiguous(),
                                words),
               31.1, "64C1");
    expectNear(measureLocalCopy(cfg, P::indexed(), P::contiguous(),
                                words),
               45.1, "wC1");
}

TEST(MeasureParagon, LoadsBeatStoresWhenStrided)
{
    // The opposite asymmetry of the T3D: the pre-fetch queue
    // pipelines loads, the write-through cache hurts stores.
    auto cfg = paragonConfig();
    double c16_1 = measureLocalCopy(cfg, P::strided(16),
                                    P::contiguous(), words);
    double c1_16 = measureLocalCopy(cfg, P::contiguous(),
                                    P::strided(16), words);
    EXPECT_GT(c16_1, c1_16);
    double cw1 = measureLocalCopy(cfg, P::indexed(), P::contiguous(),
                                  words);
    double c1w = measureLocalCopy(cfg, P::contiguous(), P::indexed(),
                                  words);
    EXPECT_GT(cw1, c1w * 0.95);
}

TEST(MeasureParagon, Table2and3Engines)
{
    auto cfg = paragonConfig();
    auto f = measureFetchSend(cfg, words);
    ASSERT_TRUE(f);
    expectNear(*f, 160.0, "1F0");
    auto r1 = measureReceiveStore(cfg, P::contiguous(), words);
    ASSERT_TRUE(r1);
    expectNear(*r1, 82.0, "0R1");
    // The Paragon DMA cannot deposit strided data.
    EXPECT_FALSE(
        measureReceiveDeposit(cfg, P::strided(64), words).has_value());
    auto d1 = measureReceiveDeposit(cfg, P::contiguous(), words);
    ASSERT_TRUE(d1);
    expectNear(*d1, 160.0, "0D1");
}

TEST(MeasureNetwork, Table4DataOnly)
{
    auto t3d = t3dConfig();
    expectNear(measureNetwork(t3d, Framing::DataOnly, 1, words),
               142.0, "T3D Nd@1");
    expectNear(measureNetwork(t3d, Framing::DataOnly, 2, words), 69.0,
               "T3D Nd@2");
    expectNear(measureNetwork(t3d, Framing::DataOnly, 4, words), 35.0,
               "T3D Nd@4");
    auto par = paragonConfig();
    expectNear(measureNetwork(par, Framing::DataOnly, 2, words), 90.0,
               "Paragon Nd@2");
}

TEST(MeasureNetwork, Table4AddrDataPairs)
{
    auto t3d = t3dConfig();
    expectNear(measureNetwork(t3d, Framing::AddrDataPair, 2, words),
               38.0, "T3D Nadp@2");
    auto par = paragonConfig();
    expectNear(measureNetwork(par, Framing::AddrDataPair, 2, words),
               45.0, "Paragon Nadp@2");
}

TEST(MeasureNetwork, BandwidthFallsWithCongestion)
{
    for (auto cfg : {t3dConfig(), paragonConfig()}) {
        double c1 = measureNetwork(cfg, Framing::DataOnly, 1, words);
        double c2 = measureNetwork(cfg, Framing::DataOnly, 2, words);
        double c4 = measureNetwork(cfg, Framing::DataOnly, 4, words);
        EXPECT_GT(c1, c2);
        EXPECT_GT(c2, c4);
        EXPECT_NEAR(c2 / c4, 2.0, 0.3);
    }
}

TEST(MeasuredTable, HasPaperStructure)
{
    auto table = measuredTable(t3dConfig());
    using ct::core::TransferOp;
    // Entries that must exist.
    EXPECT_TRUE(table
                    .lookup(ct::core::localCopy(P::contiguous(),
                                                P::strided(16)))
                    .has_value());
    EXPECT_TRUE(
        table.lookup(ct::core::receiveDeposit(P::indexed())).has_value());
    EXPECT_TRUE(
        table.lookupNetwork(TransferOp::NetAddrData, 2).has_value());
    // The dashes of the paper's tables.
    EXPECT_FALSE(
        table.lookup(ct::core::fetchSend(P::contiguous())).has_value());
    EXPECT_FALSE(
        table.lookup(ct::core::receiveStore(P::contiguous()))
            .has_value());
}

TEST(MeasuredTable, IndexedEntriesEqualStandaloneMeasurements)
{
    // The campaign draws its indexed walks' permutation once; each
    // indexed entry must equal the measurement run on its own, which
    // draws its own.
    using namespace ct::core;
    for (const MachineConfig &cfg : {t3dConfig(), paragonConfig()}) {
        ThroughputTable table = measuredTable(cfg);
        EXPECT_EQ(table.lookup(localCopy(P::indexed(), P::contiguous())),
                  measureLocalCopy(cfg, P::indexed(), P::contiguous()));
        EXPECT_EQ(table.lookup(localCopy(P::contiguous(), P::indexed())),
                  measureLocalCopy(cfg, P::contiguous(), P::indexed()));
        EXPECT_EQ(table.lookup(loadSend(P::indexed())),
                  measureLoadSend(cfg, P::indexed()));
        EXPECT_EQ(table.lookup(receiveStore(P::indexed())),
                  measureReceiveStore(cfg, P::indexed()));
        EXPECT_EQ(table.lookup(receiveDeposit(P::indexed())),
                  measureReceiveDeposit(cfg, P::indexed()));
    }
}

TEST(MeasureFootprint, LargeStrideWalkRunsAndStaysBounded)
{
    // The fig4 regression: stride 256 at 2^15 elements spans 64 MiB
    // for the strided side alone -- more than a T3D node's physical
    // RAM, which used to kill the sweep with a simulated OOM. Arena
    // provisioning must let it run, and the zero payload must leave
    // every page virtual, so host pages are O(1) in the stride.
    MeasureStats stats;
    auto mbps = measureLocalCopy(t3dConfig(), P::strided(256),
                                 P::contiguous(), 1 << 15, &stats);
    EXPECT_GT(mbps, 0.0);
    EXPECT_EQ(stats.residentPages, 0u);
}

TEST(MeasureFootprint, PeakResidencyDoesNotScaleWithStride)
{
    MeasureStats narrow, wide;
    measureLocalCopy(t3dConfig(), P::strided(64), P::contiguous(),
                     1 << 15, &narrow);
    measureLocalCopy(t3dConfig(), P::strided(1024), P::contiguous(),
                     1 << 15, &wide);
    // 16x the stride (a 256 MiB span) costs no host page at all.
    EXPECT_EQ(narrow.residentPages, 0u);
    EXPECT_EQ(wide.residentPages, 0u);
}

TEST(MeasureFootprint, IndexedWalkMaterializesOnlyItsIndexArray)
{
    // makeWalk allocates the data array and then its index array,
    // with the node's allocation skew between them; the index array
    // holds a permutation, so every page it spans takes a nonzero
    // word, and nothing else does.
    constexpr std::uint64_t n = 1 << 15;
    const MachineConfig cfg = t3dConfig();
    NodeRam layout(1ull << 40, cfg.node.ramAllocSkew);
    layout.alloc(n * 8);
    Addr idx = layout.alloc(n * 8);
    const Bytes page = NodeRam::pageBytes();
    std::size_t index_pages = (idx + n * 8 - 1) / page - idx / page + 1;

    MeasureStats stats;
    auto mbps = measureLocalCopy(cfg, P::indexed(), P::contiguous(), n,
                                 &stats);
    EXPECT_GT(mbps, 0.0);
    EXPECT_EQ(stats.residentPages, index_pages);
}

} // namespace
