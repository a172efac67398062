#include <gtest/gtest.h>

#include <algorithm>

#include "core/style_registry.h"
#include "rt/chained_layer.h"
#include "rt/packing_layer.h"
#include "rt/redistribute2d.h"
#include "rt/reliable_layer.h"
#include "rt/sim_backend.h"

namespace {

using namespace ct;
using namespace ct::rt;
using D = core::Distribution;
using core::DimSpec;
using core::Distribution2d;

Distribution2d
rowBlock(std::uint64_t n, int p)
{
    return {DimSpec::dist(D::block(n, p)), DimSpec::whole(n)};
}

TEST(SplitAffineRuns, SingleAffineListIsOneRun)
{
    auto runs = splitAffineRuns({0, 4, 8, 12}, {0, 1, 2, 3});
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_EQ(runs[0], (std::pair<std::size_t, std::size_t>{0, 4}));
}

TEST(SplitAffineRuns, BreaksWhereDeltasChange)
{
    // src jumps at index 2; dst stays affine.
    auto runs = splitAffineRuns({0, 4, 100, 104}, {0, 1, 2, 3});
    ASSERT_EQ(runs.size(), 2u);
    EXPECT_EQ(runs[0].second, 2u);
    EXPECT_EQ(runs[1].first, 2u);
}

TEST(SplitAffineRuns, SingletonLists)
{
    auto runs = splitAffineRuns({7}, {9});
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_EQ(runs[0].second, 1u);
}

TEST(Redistribute2d, TransposeRecoversFigure9Decomposition)
{
    // (BLOCK, *) -> transposed (BLOCK, *) must fall apart into flows
    // that are contiguous on one side and strided by the matrix
    // dimension on the other -- the paper's 1Qn / nQ1 choice.
    sim::Machine m(sim::t3dConfig({2, 2, 1}));
    auto w = Redistribution2dWorkload::create(m, rowBlock(64, 4),
                                              rowBlock(64, 4), true);
    ASSERT_FALSE(w.op().flows.empty());
    for (const auto &flow : w.op().flows) {
        bool src_strided = flow.srcWalk.pattern.isStrided() &&
                           flow.srcWalk.pattern.stride() == 64;
        bool dst_contig = flow.dstWalk.pattern.isContiguous();
        bool src_contig = flow.srcWalk.pattern.isContiguous();
        bool dst_strided = flow.dstWalk.pattern.isStrided() &&
                           flow.dstWalk.pattern.stride() == 64;
        EXPECT_TRUE((src_strided && dst_contig) ||
                    (src_contig && dst_strided))
            << flow.srcWalk.pattern.label() << " -> "
            << flow.dstWalk.pattern.label();
    }
}

TEST(Redistribute2d, TransposeDeliversExactly)
{
    sim::Machine m(sim::t3dConfig({2, 2, 1}));
    auto w = Redistribution2dWorkload::create(m, rowBlock(64, 4),
                                              rowBlock(64, 4), true);
    w.fillInput(m);
    ChainedLayer layer;
    layer.run(m, w.op());
    EXPECT_EQ(w.verify(m), 0u);
}

TEST(Redistribute2d, RowToColumnBlocksWithoutTranspose)
{
    // (BLOCK, *) -> (*, BLOCK): each node keeps its rows' slice of
    // the new column block; sources are strided row segments.
    sim::Machine m(sim::paragonConfig({4, 1}));
    Distribution2d from = rowBlock(32, 4);
    Distribution2d to{DimSpec::whole(32),
                      DimSpec::dist(D::block(32, 4))};
    auto w = Redistribution2dWorkload::create(m, from, to, false);
    w.fillInput(m);
    PackingLayer layer;
    layer.run(m, w.op());
    EXPECT_EQ(w.verify(m), 0u);
}

TEST(Redistribute2d, CyclicRowsToBlockRows)
{
    sim::Machine m(sim::t3dConfig({2, 2, 1}));
    Distribution2d from{DimSpec::dist(D::cyclic(32, 4)),
                        DimSpec::whole(32)};
    Distribution2d to = rowBlock(32, 4);
    auto w = Redistribution2dWorkload::create(m, from, to, false);
    w.fillInput(m);
    ChainedLayer layer;
    layer.run(m, w.op());
    EXPECT_EQ(w.verify(m), 0u);
}

TEST(Redistribute2d, GridToRowBlocks)
{
    // A 2x2 grid distribution redistributed to row blocks.
    sim::Machine m(sim::t3dConfig({2, 2, 1}));
    Distribution2d from{DimSpec::dist(D::block(16, 2)),
                        DimSpec::dist(D::block(16, 2))};
    Distribution2d to = rowBlock(16, 4);
    auto w = Redistribution2dWorkload::create(m, from, to, false);
    w.fillInput(m);
    ChainedLayer layer;
    layer.run(m, w.op());
    EXPECT_EQ(w.verify(m), 0u);
}

TEST(Redistribute2d, DominantPatternsForTranspose)
{
    sim::Machine m(sim::t3dConfig({2, 2, 1}));
    auto w = Redistribution2dWorkload::create(m, rowBlock(64, 4),
                                              rowBlock(64, 4), true);
    auto [x, y] = w.dominantPatterns();
    // One of the two sides carries the stride-64 pattern.
    EXPECT_TRUE((x.isStrided() && x.stride() == 64) ||
                (y.isStrided() && y.stride() == 64));
}

TEST(Redistribute2d, NameDescribesTheAssignment)
{
    sim::Machine m(sim::t3dConfig({2, 2, 1}));
    auto w = Redistribution2dWorkload::create(m, rowBlock(32, 4),
                                              rowBlock(32, 4), true);
    EXPECT_EQ(w.op().name, "(BLOCK, *) = transpose (BLOCK, *)");
}

TEST(Redistribute2d, VerifyCountsEveryWrongWord)
{
    sim::Machine m(sim::t3dConfig({2, 2, 1}));
    auto w = Redistribution2dWorkload::create(m, rowBlock(32, 4),
                                              rowBlock(32, 4), true);
    w.fillInput(m);
    // Nothing has moved yet: every element of B is still missing,
    // the 4 diagonal 8x8 blocks a node sends itself included.
    EXPECT_EQ(w.verify(m), 32u * 32u);
    ChainedLayer layer;
    layer.run(m, w.op());
    ASSERT_EQ(w.verify(m), 0u);
    // Clobber one delivered word of the first flow between nodes.
    auto flow_it = std::find_if(
        w.op().flows.begin(), w.op().flows.end(),
        [](const Flow &f) { return f.src != f.dst; });
    ASSERT_NE(flow_it, w.op().flows.end());
    const Flow &flow = *flow_it;
    auto &ram = m.node(flow.dst).ram();
    ram.writeWord(flow.dstWalk.elementAddr(ram, 0), 0);
    EXPECT_EQ(w.verify(m), 1u);
}

TEST(Redistribute2d, VerifyChecksSelfDeliveredBlocks)
{
    sim::Machine m(sim::t3dConfig({2, 2, 1}));
    auto w = Redistribution2dWorkload::create(m, rowBlock(32, 4),
                                              rowBlock(32, 4), true);
    w.fillInput(m);
    ChainedLayer layer;
    layer.run(m, w.op());
    ASSERT_EQ(w.verify(m), 0u);
    // Clobber one word a node delivered to itself (a diagonal block
    // of the transpose): it is as wrong as one that crossed the
    // network.
    auto flow_it = std::find_if(
        w.op().flows.begin(), w.op().flows.end(),
        [](const Flow &f) { return f.src == f.dst; });
    ASSERT_NE(flow_it, w.op().flows.end());
    auto &ram = m.node(flow_it->dst).ram();
    ram.writeWord(flow_it->dstWalk.elementAddr(ram, 0), 0);
    EXPECT_EQ(w.verify(m), 1u);
}

// Every layout through the PVM layer and behind the reliable
// transport on a lossy wire, beside the chained and packing runs
// above.
struct Layout2d
{
    const char *name;
    Distribution2d from;
    Distribution2d to;
    bool transpose;
};

void
PrintTo(const Layout2d &layout, std::ostream *os)
{
    *os << layout.name;
}

class Redistribute2dDelivery : public testing::TestWithParam<Layout2d>
{};

TEST_P(Redistribute2dDelivery, PvmBitExact)
{
    const Layout2d &layout = GetParam();
    sim::Machine m(sim::paragonConfig({4, 1}));
    auto w = Redistribution2dWorkload::create(m, layout.from, layout.to,
                                              layout.transpose);
    w.fillInput(m);
    auto pvm = lowerProgram(*core::buildProgram(
        core::MachineId::Paragon, "pvm", core::AccessPattern::contiguous(),
        core::AccessPattern::contiguous()));
    pvm->run(m, w.op());
    EXPECT_EQ(w.verify(m), 0u);
}

TEST_P(Redistribute2dDelivery, ReliableChainedBitExactUnderDrops)
{
    const Layout2d &layout = GetParam();
    auto cfg = sim::t3dConfig({2, 2, 1});
    cfg.faults = sim::FaultSpec::parse("drop=0.05,seed=42");
    sim::Machine m(cfg);
    auto w = Redistribution2dWorkload::create(m, layout.from, layout.to,
                                              layout.transpose);
    w.fillInput(m);
    auto layer = makeReliableChained();
    auto r = layer->run(m, w.op());
    EXPECT_EQ(w.verify(m), 0u);
    EXPECT_GT(layer->stats().retransmits, 0u);
    EXPECT_EQ(layer->stats().abandoned, 0u);
    EXPECT_FALSE(r.degraded);
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, Redistribute2dDelivery,
    testing::Values(
        Layout2d{"RowBlocksTransposed", rowBlock(32, 4), rowBlock(32, 4),
                 true},
        Layout2d{"RowBlocksToColumnBlocks", rowBlock(32, 4),
                 {DimSpec::whole(32), DimSpec::dist(D::block(32, 4))},
                 false},
        Layout2d{"CyclicRowsToBlockRows",
                 {DimSpec::dist(D::cyclic(32, 4)), DimSpec::whole(32)},
                 rowBlock(32, 4), false},
        Layout2d{"GridToRowBlocks",
                 {DimSpec::dist(D::block(32, 2)),
                  DimSpec::dist(D::block(32, 2))},
                 rowBlock(32, 4), false}),
    [](const testing::TestParamInfo<Layout2d> &info) {
        return std::string(info.param.name);
    });

} // namespace
