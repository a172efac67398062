/**
 * @file
 * The basic-transfer campaign on the sweep farm: the tables
 * crossValidate() measures on its farm must equal the serial
 * sim::measuredTable() bit for bit at every worker count, and the
 * report must not depend on the thread count below the JSON's three
 * printed decimals either. The TSan CI leg runs this suite: it is
 * where every measurement kind (copies, sends, receives, deposits,
 * DMA fetches and a whole 16-node network) runs concurrently.
 */

#include <gtest/gtest.h>

#include "rt/validation.h"
#include "sim/measure.h"
#include "sweep/farm.h"

namespace {

using namespace ct;
using P = core::AccessPattern;

TEST(FarmedCampaign, TablesEqualTheSerialCampaignAtEveryWorkerCount)
{
    const std::vector<sim::MachineConfig> configs = {
        sim::configFor(core::MachineId::T3d),
        sim::configFor(core::MachineId::Paragon)};
    std::vector<core::ThroughputTable> serial;
    for (const sim::MachineConfig &cfg : configs)
        serial.push_back(sim::measuredTable(cfg));

    // Transfers a machine lacks stay absent rather than measured.
    const core::ThroughputTable &t3d = serial[0];
    const core::ThroughputTable &paragon = serial[1];
    EXPECT_FALSE(t3d.lookup(core::fetchSend(P::contiguous())));
    EXPECT_FALSE(t3d.lookup(core::receiveStore(P::contiguous())));
    EXPECT_FALSE(t3d.lookup(core::receiveStore(P::indexed())));
    EXPECT_TRUE(paragon.lookup(core::receiveDeposit(P::contiguous())));
    EXPECT_FALSE(paragon.lookup(core::receiveDeposit(P::strided(16))));
    EXPECT_FALSE(paragon.lookup(core::receiveDeposit(P::indexed())));

    for (int threads : {1, 2, 4, 8}) {
        SCOPED_TRACE(threads);
        sweep::Farm farm({threads, 0});
        std::vector<core::ThroughputTable> farmed =
            sim::measuredTables(configs, farm);
        ASSERT_EQ(farmed.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i)
            EXPECT_TRUE(farmed[i] == serial[i]) << configs[i].name;
    }
}

TEST(FarmedCampaign, ReportIsExactAcrossThreadCounts)
{
    rt::ValidationOptions inline_opts;
    rt::ValidationOptions farmed_opts;
    farmed_opts.threads = 4;
    rt::ValidationReport a = rt::crossValidate(inline_opts);
    rt::ValidationReport b = rt::crossValidate(farmed_opts);
    ASSERT_EQ(a.cells.size(), b.cells.size());
    for (std::size_t i = 0; i < a.cells.size(); ++i) {
        const rt::ValidationCell &x = a.cells[i];
        const rt::ValidationCell &y = b.cells[i];
        SCOPED_TRACE(x.machineName + " " + x.style + " " + x.x + "Q" +
                     x.y);
        EXPECT_EQ(x.formula, y.formula);
        EXPECT_EQ(x.modelMBps, y.modelMBps);
        EXPECT_EQ(x.simMBps, y.simMBps);
        EXPECT_EQ(x.errorPct, y.errorPct);
    }
    EXPECT_EQ(a.worstAbsErrPct, b.worstAbsErrPct);
}

} // namespace
