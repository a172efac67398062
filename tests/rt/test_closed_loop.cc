/**
 * @file
 * Closed-loop validation with no paper numbers involved: measure the
 * basic transfers on the simulator (sim::measuredTable, the §4
 * campaign), feed that table into the copy-transfer model, and check
 * the model's predictions against independent end-to-end runs on the
 * same simulator. This is the paper's whole methodology, executed
 * entirely inside the reproduction: if the model is sound, a table
 * measured on micro-benchmarks must predict macro behaviour.
 */

#include <gtest/gtest.h>

#include "core/analytic_backend.h"
#include "core/style_registry.h"
#include "rt/chained_layer.h"
#include "rt/packing_layer.h"
#include "rt/workload.h"
#include "sim/measure.h"

namespace {

using namespace ct;
using namespace ct::rt;
using P = core::AccessPattern;

/** Shared fixture: measuring the table once per machine is slow. */
class ClosedLoop : public testing::Test
{
  protected:
    static const core::ThroughputTable &
    t3dTable()
    {
        static core::ThroughputTable table =
            sim::measuredTable(sim::t3dConfig());
        return table;
    }

    /** The paper backend with the measured table swapped in. */
    static const core::AnalyticBackend &
    backend()
    {
        static core::AnalyticBackend measured(
            t3dTable(),
            core::paperBackend(core::MachineId::T3d).profile());
        return measured;
    }

    static double
    predict(core::Style style, P x, P y)
    {
        auto program =
            core::buildProgram(core::MachineId::T3d, style, x, y);
        EXPECT_TRUE(program.has_value());
        auto rate = backend().rate(*program, 2.0);
        EXPECT_TRUE(rate.has_value());
        return rate.value_or(0.0);
    }

    template <typename Layer>
    static double
    run(P x, P y)
    {
        sim::Machine m(sim::configFor(core::MachineId::T3d));
        auto op = pairExchange(m, x, y, 1 << 14);
        seedSources(m, op);
        Layer layer;
        auto r = layer.run(m, op);
        EXPECT_EQ(verifyDelivery(m, op), 0u);
        return r.perNodeMBps(m);
    }
};

TEST_F(ClosedLoop, MeasuredTableHasSaneMagnitudes)
{
    auto c11 =
        t3dTable().lookup(core::localCopy(P::contiguous(),
                                          P::contiguous()));
    ASSERT_TRUE(c11);
    EXPECT_GT(*c11, 50.0);
    EXPECT_LT(*c11, 250.0);
}

TEST_F(ClosedLoop, PackingPredictionsMatchEndToEnd)
{
    struct Case
    {
        P x, y;
    } cases[] = {
        {P::contiguous(), P::contiguous()},
        {P::contiguous(), P::strided(64)},
        {P::strided(64), P::contiguous()},
        {P::indexed(), P::indexed()},
    };
    for (const auto &[x, y] : cases) {
        double model = predict(core::Style::BufferPacking, x, y);
        double sim = run<PackingLayer>(x, y);
        EXPECT_GT(sim, model * 0.55)
            << x.label() << "Q" << y.label() << " model " << model;
        EXPECT_LT(sim, model * 1.8)
            << x.label() << "Q" << y.label() << " model " << model;
    }
}

TEST_F(ClosedLoop, ChainedPredictionsBoundEndToEnd)
{
    // Chained end-to-end runs include remote-address generation and
    // engine contention the steady-state model omits, so measured
    // throughput sits below the prediction but within a fixed band
    // (the same relation the paper's Figure 7 shows).
    struct Case
    {
        P x, y;
    } cases[] = {
        {P::contiguous(), P::contiguous()},
        {P::contiguous(), P::strided(64)},
        {P::indexed(), P::indexed()},
    };
    for (const auto &[x, y] : cases) {
        double model = predict(core::Style::Chained, x, y);
        double sim = run<ChainedLayer>(x, y);
        EXPECT_LT(sim, model * 1.15)
            << x.label() << "Q" << y.label() << " model " << model;
        EXPECT_GT(sim, model * 0.35)
            << x.label() << "Q" << y.label() << " model " << model;
    }
}

TEST_F(ClosedLoop, ModelRanksTheStylesCorrectly)
{
    // Whatever the absolute errors, the model built from the
    // measured table must order the styles the way the machine does.
    for (auto [x, y] :
         {std::pair(P::contiguous(), P::strided(64)),
          std::pair(P::indexed(), P::indexed())}) {
        double model_chained = predict(core::Style::Chained, x, y);
        double model_packing =
            predict(core::Style::BufferPacking, x, y);
        double sim_chained = run<ChainedLayer>(x, y);
        double sim_packing = run<PackingLayer>(x, y);
        EXPECT_GT(model_chained, model_packing);
        EXPECT_GT(sim_chained, sim_packing);
    }
}

} // namespace
