#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sweep/farm.h"
#include "sweep/grid.h"

namespace {

using namespace ct;
using sweep::CellKind;
using sweep::CellResult;
using sweep::CellSpec;
using sweep::Farm;
using sweep::FarmOptions;
using sweep::Grid;

TEST(GridParse, PresetFig4Expands)
{
    std::string error;
    auto grid = Grid::parse("fig4", &error);
    ASSERT_TRUE(grid) << error;
    std::vector<CellSpec> cells = grid->cells();
    ASSERT_FALSE(cells.empty());
    for (const CellSpec &cell : cells) {
        EXPECT_EQ(cell.kind, CellKind::Copy);
        EXPECT_NE(cell.id.find("/copy/"), std::string::npos)
            << cell.id;
    }
}

TEST(GridParse, PresetFaultsweepExpandsWithFaultedVariants)
{
    std::string error;
    auto grid = Grid::parse("faultsweep", &error);
    ASSERT_TRUE(grid) << error;
    std::vector<CellSpec> cells = grid->cells();
    ASSERT_FALSE(cells.empty());
    bool any_faulted = false;
    for (const CellSpec &cell : cells)
        any_faulted |= cell.faults.any();
    EXPECT_TRUE(any_faulted);
}

TEST(GridParse, DimensionListBuildsTheNamedCell)
{
    std::string error;
    auto grid = Grid::parse(
        "kind=exchange;machine=t3d;style=chained;x=1;y=16;words=1024",
        &error);
    ASSERT_TRUE(grid) << error;
    std::vector<CellSpec> cells = grid->cells();
    ASSERT_EQ(cells.size(), 1u);
    EXPECT_EQ(cells[0].id, "t3d/chained/1Q16/w1024");
    EXPECT_EQ(cells[0].words, 1024u);
}

TEST(GridParse, RejectsUnknownAndDuplicateKeys)
{
    std::string error;
    EXPECT_FALSE(Grid::parse("bogus=1", &error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(Grid::parse("kind=copy;kind=copy", &error));
    EXPECT_FALSE(Grid::parse("machine=vax", &error));
    EXPECT_FALSE(Grid::parse("bogus", &error));
}

TEST(GridParse, RejectsExchangeCellsThatCannotFitNodeRam)
{
    std::string error;
    EXPECT_FALSE(Grid::parse("kind=exchange;machine=t3d;style=chained;"
                             "x=1;y=1;words=16777216",
                             &error));
    EXPECT_NE(error.find("t3d/chained/1Q1/w16777216"),
              std::string::npos)
        << error;
    EXPECT_NE(error.find("67108864"), std::string::npos) << error;
    // Analytic-only scale cells build no machine, and copies size
    // their own arena, so neither is refused.
    EXPECT_TRUE(Grid::parse("kind=exchange;machine=t3d;style=chained;"
                            "x=1;y=1;words=16777216;nodes=512",
                            &error))
        << error;
    EXPECT_TRUE(Grid::parse("kind=copy;machine=t3d;x=1;y=1;"
                            "words=16777216",
                            &error))
        << error;
}

TEST(GridParse, RefusesOutageTargetsTheMachineLacks)
{
    // The T3D config has 8 nodes: node 64 would kill the sweep in
    // the Machine constructor, so the cell is refused at parse time.
    std::string error;
    EXPECT_FALSE(Grid::parse("kind=exchange;machine=t3d;style=chained;"
                             "x=1;y=1;words=1024;"
                             "faults=node_down=64@0",
                             &error));
    EXPECT_NE(error.find("bad node"), std::string::npos) << error;
    EXPECT_FALSE(Grid::parse("kind=exchange;machine=t3d;style=chained;"
                             "x=1;y=1;words=1024;"
                             "faults=link_down=99999@0",
                             &error));
    EXPECT_NE(error.find("bad link"), std::string::npos) << error;
    EXPECT_TRUE(Grid::parse("kind=exchange;machine=t3d;style=chained;"
                            "x=1;y=1;words=1024;"
                            "faults=node_down=7@0",
                            &error))
        << error;
}

TEST(GridParse, NumberFormsAreStrict)
{
    std::string error;
    auto grid = Grid::parse("kind=exchange;machine=t3d;style=chained;"
                            "x=1;y=1;words=1,1024;nodes=8,8192",
                            &error);
    ASSERT_TRUE(grid) << error;
    std::vector<CellSpec> cells = grid->cells();
    ASSERT_EQ(cells.size(), 4u);
    EXPECT_EQ(cells[0].words, 1u);
    EXPECT_EQ(cells[0].nodes, 8);
    EXPECT_EQ(cells[3].words, 1024u);
    EXPECT_EQ(cells[3].nodes, 8192);
    auto scale = Grid::parse("nodes:64..8192", &error);
    ASSERT_TRUE(scale) << error;
    EXPECT_EQ(scale->cells().size(), 16u);

    // strtol/strtoull would accept a sign or a leading space.
    for (const auto &[spec, token] :
         std::vector<std::pair<const char *, const char *>>{
             {"kind=copy;words=+64", "'+64'"},
             {"kind=copy;words= 64", "' 64'"},
             {"kind=exchange;nodes= 64", "' 64'"},
             {"kind=exchange;nodes=+64", "'+64'"},
             {"nodes:+8..16", "'+8..16'"},
             {"nodes:8.. 16", "'8.. 16'"}}) {
        EXPECT_FALSE(Grid::parse(spec, &error)) << spec;
        EXPECT_NE(error.find(token), std::string::npos)
            << spec << ": " << error;
    }
    // strtoull would wrap -1 to 2^64-1 and blame node RAM instead.
    EXPECT_FALSE(Grid::parse("kind=exchange;machine=t3d;style=chained;"
                             "x=1;y=1;words=-1",
                             &error));
    EXPECT_NE(error.find("bad word count '-1'"), std::string::npos)
        << error;
}

TEST(GridParse, CellOrderIsMachineMajor)
{
    std::string error;
    auto grid = Grid::parse("kind=exchange;machine=t3d,paragon;"
                            "style=chained;x=1;y=1,16;words=1024",
                            &error);
    ASSERT_TRUE(grid) << error;
    std::vector<CellSpec> cells = grid->cells();
    ASSERT_EQ(cells.size(), 4u);
    EXPECT_EQ(cells[0].id, "t3d/chained/1Q1/w1024");
    EXPECT_EQ(cells[1].id, "t3d/chained/1Q16/w1024");
    EXPECT_EQ(cells[2].id, "paragon/chained/1Q1/w1024");
    EXPECT_EQ(cells[3].id, "paragon/chained/1Q16/w1024");
}

TEST(Grid, RunCellProducesThroughput)
{
    std::string error;
    auto grid = Grid::parse(
        "kind=copy;machine=t3d;x=1;y=16;words=4096", &error);
    ASSERT_TRUE(grid) << error;
    std::vector<CellSpec> cells = grid->cells();
    ASSERT_EQ(cells.size(), 1u);
    CellResult result = sweep::runCell(cells[0]);
    EXPECT_EQ(result.id, cells[0].id);
    EXPECT_GT(result.simMBps, 0.0);
    EXPECT_EQ(result.corruptWords, 0u);
}

// The determinism contract end to end: the same grid, run serially
// and on a wide farm, renders byte-identical JSON -- including
// fault-injected cells, whose RNG is seeded per cell, across several
// seeds.
TEST(Grid, MergedResultsAreByteIdenticalAcrossThreadCounts)
{
    for (int seed = 1; seed <= 3; ++seed) {
        std::string spec =
            "kind=exchange;machine=t3d;style=chained,buffer-packing;"
            "x=4;y=4;words=2048;"
            "faults=none|drop=0.01,seed=" +
            std::to_string(seed);
        std::string error;
        auto grid = Grid::parse(spec, &error);
        ASSERT_TRUE(grid) << error;

        Farm serial(FarmOptions{0, 0});
        Farm wide(FarmOptions{8, 1});
        std::string one =
            sweep::resultsJson(sweep::runGrid(*grid, serial));
        std::string eight =
            sweep::resultsJson(sweep::runGrid(*grid, wide));
        EXPECT_EQ(one, eight) << "seed " << seed;
        EXPECT_NE(one.find("w2048"), std::string::npos);
    }
}

TEST(GridParse, NodesKeyExpandsScaledCells)
{
    std::string error;
    auto grid = Grid::parse(
        "kind=exchange;machine=t3d;style=chained;x=1;y=1;words=1024;"
        "nodes=64,4096",
        &error);
    ASSERT_TRUE(grid) << error;
    std::vector<CellSpec> cells = grid->cells();
    ASSERT_EQ(cells.size(), 2u);
    EXPECT_EQ(cells[0].id, "t3d/chained/1Q1/w1024/n64");
    EXPECT_EQ(cells[0].nodes, 64);
    EXPECT_EQ(cells[1].id, "t3d/chained/1Q1/w1024/n4096");
    EXPECT_EQ(cells[1].nodes, 4096);
}

TEST(GridParse, NodesKeyRejectsBadCounts)
{
    std::string error;
    EXPECT_FALSE(Grid::parse("kind=exchange;nodes=100", &error));
    EXPECT_NE(error.find("powers of two"), std::string::npos);
    EXPECT_FALSE(Grid::parse("kind=exchange;nodes=16384", &error));
    // Copies have no network: a nodes axis is meaningless there.
    EXPECT_FALSE(Grid::parse("kind=copy;nodes=64", &error));
    EXPECT_NE(error.find("exchange cells only"), std::string::npos);
}

TEST(GridParse, ScalePresetDoublesAcrossTheRange)
{
    std::string error;
    auto grid = Grid::parse("nodes:64..512", &error);
    ASSERT_TRUE(grid) << error;
    std::vector<CellSpec> cells = grid->cells();
    // 64, 128, 256, 512 on both machines, chained 1Q1.
    ASSERT_EQ(cells.size(), 8u);
    for (const CellSpec &cell : cells) {
        EXPECT_EQ(cell.kind, CellKind::Exchange);
        EXPECT_GE(cell.nodes, 64);
        EXPECT_LE(cell.nodes, 512);
    }
    EXPECT_FALSE(Grid::parse("nodes:64..100", &error));
    EXPECT_FALSE(Grid::parse("nodes:512..64", &error));
}

TEST(Grid, ScaledCellAboveSimCapIsAnalyticOnly)
{
    // Above kScaleSimNodes the cell answers analytically: congestion
    // and model rate are filled, the simulator never runs (simMBps
    // 0), so an 8192-node cell completes in milliseconds.
    CellSpec spec;
    spec.kind = CellKind::Exchange;
    spec.machine = core::MachineId::T3d;
    spec.style = "chained";
    spec.x = core::AccessPattern::contiguous();
    spec.y = core::AccessPattern::contiguous();
    spec.words = 1024;
    spec.nodes = 8192;
    spec.id = "t3d/chained/1Q1/w1024/n8192";
    CellResult result = sweep::runCell(spec);
    EXPECT_EQ(result.simMBps, 0.0);
    EXPECT_GT(result.modelMBps, 0.0);
    EXPECT_DOUBLE_EQ(result.congestion, 2.0); // shared ports

    // At or below the cap the same cell cross-validates in the sim.
    spec.nodes = 64;
    spec.id = "t3d/chained/1Q1/w1024/n64";
    CellResult small = sweep::runCell(spec);
    EXPECT_GT(small.simMBps, 0.0);
    EXPECT_DOUBLE_EQ(small.congestion, 2.0);
    // The scaled topology keeps the machine's congestion character,
    // so the analytic answer matches the unscaled model path.
    EXPECT_DOUBLE_EQ(small.modelMBps, result.modelMBps);
}

TEST(Grid, ScaledSweepIsByteIdenticalAcrossThreadCounts)
{
    std::string error;
    auto grid = Grid::parse("nodes:64..1024", &error);
    ASSERT_TRUE(grid) << error;
    Farm serial(FarmOptions{0, 0});
    Farm wide(FarmOptions{8, 1});
    std::string one =
        sweep::resultsJson(sweep::runGrid(*grid, serial));
    std::string eight =
        sweep::resultsJson(sweep::runGrid(*grid, wide));
    EXPECT_EQ(one, eight);
    EXPECT_NE(one.find("/n1024"), std::string::npos);
    EXPECT_NE(one.find("\"congestion\""), std::string::npos);
}

TEST(Grid, FormatResultsListsEveryCell)
{
    std::string error;
    auto grid = Grid::parse(
        "kind=copy;machine=t3d,paragon;x=1;y=1;words=1024", &error);
    ASSERT_TRUE(grid) << error;
    Farm farm(FarmOptions{0, 0});
    std::vector<CellResult> results = sweep::runGrid(*grid, farm);
    std::string table = sweep::formatResults(results);
    for (const CellResult &r : results)
        EXPECT_NE(table.find(r.id), std::string::npos) << table;
}

} // namespace
