#include <gtest/gtest.h>

#include "core/planner.h"

namespace {

using namespace ct::core;
using P = AccessPattern;

TEST(Planner, AlwaysReturnsAtLeastPacking)
{
    for (auto id : {MachineId::T3d, MachineId::Paragon}) {
        PlanQuery q{id, P::indexed(), P::strided(7), 0.0};
        auto plans = plan(q);
        EXPECT_FALSE(plans.empty());
        bool has_packing = false;
        for (const auto &p : plans)
            has_packing |= p.program.style == Style::BufferPacking;
        EXPECT_TRUE(has_packing) << machineName(id);
    }
}

TEST(Planner, SortedByDescendingEstimate)
{
    PlanQuery q{MachineId::T3d, P::contiguous(), P::strided(64), 0.0};
    auto plans = plan(q);
    for (std::size_t i = 1; i < plans.size(); ++i)
        EXPECT_GE(plans[i - 1].estimate, plans[i].estimate);
}

TEST(Planner, ChainedWinsForStridedOnT3d)
{
    PlanQuery q{MachineId::T3d, P::contiguous(), P::strided(64), 0.0};
    auto best = bestPlan(q);
    EXPECT_EQ(best.program.style, Style::Chained);
    EXPECT_NEAR(best.estimate, 38.0, 0.5);
}

TEST(Planner, ChainedWinsForIndexedOnParagon)
{
    PlanQuery q{MachineId::Paragon, P::indexed(), P::indexed(), 0.0};
    auto best = bestPlan(q);
    EXPECT_EQ(best.program.style, Style::Chained);
    EXPECT_NEAR(best.estimate, 36.0, 0.5);
}

TEST(Planner, DmaDirectWinsForContiguousOnParagon)
{
    // With no copies and DMA feed, the contiguous block transfer runs
    // at network speed and beats processor-fed chained transfers.
    PlanQuery q{MachineId::Paragon, P::contiguous(), P::contiguous(),
                0.0};
    auto best = bestPlan(q);
    EXPECT_EQ(best.program.style, Style::DmaDirect);
}

TEST(Planner, CongestionDefaultsToMachineValue)
{
    PlanQuery def{MachineId::T3d, P::contiguous(), P::contiguous(),
                  0.0};
    PlanQuery two{MachineId::T3d, P::contiguous(), P::contiguous(),
                  2.0};
    EXPECT_DOUBLE_EQ(bestPlan(def).estimate, bestPlan(two).estimate);
}

TEST(Planner, HigherCongestionNeverHelps)
{
    for (auto id : {MachineId::T3d, MachineId::Paragon}) {
        PlanQuery fast{id, P::contiguous(), P::strided(64), 1.0};
        PlanQuery slow{id, P::contiguous(), P::strided(64), 4.0};
        EXPECT_GE(bestPlan(fast).estimate, bestPlan(slow).estimate)
            << machineName(id);
    }
}

TEST(Planner, PvmNeverWins)
{
    for (auto id : {MachineId::T3d, MachineId::Paragon}) {
        for (auto y : {P::contiguous(), P::strided(64), P::indexed()}) {
            PlanQuery q{id, P::contiguous(), y, 0.0};
            EXPECT_NE(bestPlan(q).program.style, Style::Pvm);
        }
    }
}

TEST(Planner, FormatMentionsEveryStyle)
{
    PlanQuery q{MachineId::T3d, P::contiguous(), P::strided(64), 0.0};
    auto plans = plan(q);
    auto text = formatPlan(q, plans);
    EXPECT_NE(text.find("1Q64 on T3D"), std::string::npos);
    EXPECT_NE(text.find("chained"), std::string::npos);
    EXPECT_NE(text.find("buffer-packing"), std::string::npos);
    EXPECT_NE(text.find("MB/s"), std::string::npos);
}

} // namespace
