#include <gtest/gtest.h>

#include "core/planner.h"
#include "core/style_registry.h"
#include "rt/sim_backend.h"

namespace {

using namespace ct;
using P = core::AccessPattern;

// A style the core library has never heard of: contiguous-only
// chained transfers with an exaggerated per-message cost. Registering
// the builder is the ONLY change needed for the planner, the analytic
// backend and the simulation backend to pick it up.
std::optional<core::TransferProgram>
buildToy(core::MachineId id, P x, P y)
{
    if (!x.isContiguous() || !y.isContiguous())
        return std::nullopt;
    core::TransferProgram p;
    p.style = core::Style::Custom;
    p.styleKey = "toy-wire";
    p.machine = id;
    p.x = x;
    p.y = y;
    p.stages = {
        {core::loadSend(P::contiguous()),
         core::StageResource::SenderCpu,
         core::BufferBinding::SourceArray,
         core::BufferBinding::NetworkPort},
        {core::netData(), core::StageResource::Wire,
         core::BufferBinding::NetworkPort,
         core::BufferBinding::NetworkPort},
        {core::receiveDeposit(P::contiguous()),
         core::StageResource::ReceiverEngine,
         core::BufferBinding::NetworkPort,
         core::BufferBinding::DestArray},
    };
    p.costs = {9000, 0, 8000};
    p.stagingBuffers = 0;
    return p;
}

class ToyStyle : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        core::registerStyle(
            {core::Style::Custom, "toy-wire", {9000, 0, 8000},
             buildToy});
    }
};

TEST_F(ToyStyle, AppearsInRegistryAndPlanner)
{
    ASSERT_NE(core::findStyle("toy-wire"), nullptr);

    core::PlanQuery q{core::MachineId::T3d, P::contiguous(),
                      P::contiguous(), 0.0};
    auto plans = core::plan(q);
    bool found = false;
    for (const auto &p : plans)
        found |= p.program.styleKey == "toy-wire";
    EXPECT_TRUE(found) << "planner did not enumerate the toy style";

    // Patterns the builder rejects must simply not show up.
    core::PlanQuery strided{core::MachineId::T3d, P::strided(16),
                            P::contiguous(), 0.0};
    for (const auto &p : core::plan(strided))
        EXPECT_NE(p.program.styleKey, "toy-wire");
}

TEST_F(ToyStyle, RatesThroughAnalyticBackend)
{
    auto program = core::buildProgram(
        core::MachineId::T3d, "toy-wire", P::contiguous(),
        P::contiguous());
    ASSERT_TRUE(program.has_value());
    EXPECT_EQ(program->format(), "1S0 || Nd || 0D1");

    sim::MachineConfig cfg = sim::configFor(core::MachineId::T3d);
    core::AnalyticBackend analytic(core::paperTable(cfg.id),
                                   rt::executionProfileFor(cfg));
    auto rate = analytic.rate(
        *program, core::paperCaps(cfg.id).defaultCongestion);
    ASSERT_TRUE(rate.has_value());
    EXPECT_GT(*rate, 0.0);

    // Same stages as built-in chained 1Q1 => same steady-state rate.
    auto chained = core::buildProgram(
        core::MachineId::T3d, core::Style::Chained, P::contiguous(),
        P::contiguous());
    ASSERT_TRUE(chained.has_value());
    auto chainedRate = analytic.rate(
        *chained, core::paperCaps(cfg.id).defaultCongestion);
    ASSERT_TRUE(chainedRate.has_value());
    EXPECT_DOUBLE_EQ(*rate, *chainedRate);
}

TEST_F(ToyStyle, SimulatesThroughSimBackend)
{
    auto program = core::buildProgram(
        core::MachineId::T3d, "toy-wire", P::contiguous(),
        P::contiguous());
    ASSERT_TRUE(program.has_value());

    rt::SimBackend backend(sim::configFor(core::MachineId::T3d));
    rt::SimRun run = backend.execute(*program, 1 << 12);
    EXPECT_EQ(run.corruptWords, 0u);
    EXPECT_GT(run.perNodeMBps, 0.0);
    EXPECT_EQ(run.layerName, "chained");
}

} // namespace
