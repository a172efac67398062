/**
 * @file
 * Integration tests of the paper's central claim: the copy-transfer
 * model predicts the throughput of end-to-end communication
 * operations, and chained transfers beat buffer packing for
 * non-contiguous patterns.
 */

#include <gtest/gtest.h>

#include "core/analytic_backend.h"
#include "core/style_registry.h"
#include "rt/chained_layer.h"
#include "rt/packing_layer.h"
#include "rt/workload.h"

namespace {

using namespace ct;
using namespace ct::rt;
using P = core::AccessPattern;

/** Simulator-measured per-node throughput of an exchange. */
template <typename Layer>
double
measured(core::MachineId id, P x, P y, std::uint64_t words = 16384)
{
    auto cfg = sim::configFor(id);
    sim::Machine m(cfg);
    auto op = pairExchange(m, x, y, words);
    seedSources(m, op);
    Layer layer;
    auto r = layer.run(m, op);
    EXPECT_EQ(verifyDelivery(m, op), 0u);
    return r.perNodeMBps(m);
}

/** Copy-transfer model estimate using the paper's parameter table. */
double
modelEstimate(core::MachineId id, core::Style style, P x, P y)
{
    auto program = core::buildProgram(id, style, x, y);
    EXPECT_TRUE(program.has_value());
    auto rate = core::paperBackend(id).rate(
        *program, core::paperCaps(id).defaultCongestion);
    EXPECT_TRUE(rate.has_value());
    return rate.value_or(0.0);
}

struct Case
{
    P x;
    P y;
};

void
PrintTo(const Case &c, std::ostream *os)
{
    *os << c.x.label() << 'Q' << c.y.label();
}

class ModelVsSim : public testing::TestWithParam<Case>
{};

TEST_P(ModelVsSim, T3dChainedWithinBand)
{
    auto [x, y] = GetParam();
    double model =
        modelEstimate(core::MachineId::T3d, core::Style::Chained, x, y);
    double sim = measured<ChainedLayer>(core::MachineId::T3d, x, y);
    // As in the paper, measured throughput sits below the model's
    // steady-state optimum but within a factor band.
    EXPECT_LT(sim, model * 1.35) << "model " << model;
    EXPECT_GT(sim, model * 0.35) << "model " << model;
}

TEST_P(ModelVsSim, T3dPackingWithinBand)
{
    auto [x, y] = GetParam();
    double model = modelEstimate(core::MachineId::T3d,
                                 core::Style::BufferPacking, x, y);
    double sim = measured<PackingLayer>(core::MachineId::T3d, x, y);
    EXPECT_LT(sim, model * 1.6) << "model " << model;
    EXPECT_GT(sim, model * 0.4) << "model " << model;
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, ModelVsSim,
    testing::Values(Case{P::contiguous(), P::contiguous()},
                    Case{P::contiguous(), P::strided(16)},
                    Case{P::contiguous(), P::strided(64)},
                    Case{P::strided(16), P::contiguous()},
                    Case{P::strided(64), P::contiguous()},
                    Case{P::indexed(), P::indexed()}));

// ---------------------------------------------------------------------
// The headline result: chained beats buffer packing (Figures 7/8).
// ---------------------------------------------------------------------

class ChainedWins : public testing::TestWithParam<Case>
{};

TEST_P(ChainedWins, OnT3d)
{
    auto [x, y] = GetParam();
    double chained = measured<ChainedLayer>(core::MachineId::T3d, x, y);
    double packing = measured<PackingLayer>(core::MachineId::T3d, x, y);
    EXPECT_GT(chained, packing);
}

TEST_P(ChainedWins, OnParagon)
{
    auto [x, y] = GetParam();
    double chained =
        measured<ChainedLayer>(core::MachineId::Paragon, x, y);
    double packing =
        measured<PackingLayer>(core::MachineId::Paragon, x, y);
    EXPECT_GT(chained, packing);
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, ChainedWins,
    testing::Values(Case{P::contiguous(), P::contiguous()},
                    Case{P::contiguous(), P::strided(64)},
                    Case{P::strided(64), P::contiguous()},
                    Case{P::indexed(), P::indexed()}));

// ---------------------------------------------------------------------
// Table 5: the strided-loads vs strided-stores asymmetry crosses over
// between the machines.
// ---------------------------------------------------------------------

TEST(Table5, T3dPackingPrefersStridedStores)
{
    double strided_stores = measured<PackingLayer>(
        core::MachineId::T3d, P::contiguous(), P::strided(16));
    double strided_loads = measured<PackingLayer>(
        core::MachineId::T3d, P::strided(16), P::contiguous());
    EXPECT_GT(strided_stores, strided_loads);
}

TEST(Table5, ParagonChainedPrefersStridedLoads)
{
    double strided_loads = measured<ChainedLayer>(
        core::MachineId::Paragon, P::strided(16), P::contiguous());
    double strided_stores = measured<ChainedLayer>(
        core::MachineId::Paragon, P::contiguous(), P::strided(16));
    EXPECT_GT(strided_loads, strided_stores);
}

// ---------------------------------------------------------------------
// Small-message crossover: the size-aware planner's prediction that
// buffer packing beats chained below a crossover size (and not above)
// must hold on the simulated machine.
// ---------------------------------------------------------------------

TEST(SizedCrossover, SimulatorConfirmsTheDirection)
{
    auto chained_small = measured<ChainedLayer>(
        core::MachineId::T3d, P::contiguous(), P::contiguous(), 64);
    auto packing_small = measured<PackingLayer>(
        core::MachineId::T3d, P::contiguous(), P::contiguous(), 64);
    auto chained_large = measured<ChainedLayer>(
        core::MachineId::T3d, P::contiguous(), P::contiguous(),
        1 << 15);
    auto packing_large = measured<PackingLayer>(
        core::MachineId::T3d, P::contiguous(), P::contiguous(),
        1 << 15);
    // 64 words = 512 B sits below the predicted 1,550 B crossover;
    // 32K words sits far above it.
    EXPECT_GT(packing_small, chained_small * 0.8);
    EXPECT_GT(chained_large, packing_large * 1.5);
}

} // namespace
