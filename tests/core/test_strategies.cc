#include <gtest/gtest.h>

#include "core/analytic_backend.h"
#include "core/style_registry.h"

namespace {

using namespace ct::core;
using P = AccessPattern;

double
rate(MachineId id, Style style, P x, P y)
{
    auto s = buildProgram(id, style, x, y);
    EXPECT_TRUE(s.has_value());
    auto v = paperBackend(id).rate(*s, paperCaps(id).defaultCongestion);
    EXPECT_TRUE(v.has_value());
    return v ? *v : 0.0;
}

// ---------------------------------------------------------------------
// §5.1.1: buffer-packing predictions on the T3D.
// ---------------------------------------------------------------------

TEST(StrategiesT3d, BufferPackingMatchesPaperPredictions)
{
    // Paper: |1Q1| = 27.9, |1Q64| = 25.2, |64Q1| = 17.1, |wQw| = 14.2.
    EXPECT_NEAR(rate(MachineId::T3d, Style::BufferPacking,
                     P::contiguous(), P::contiguous()),
                27.9, 0.5);
    EXPECT_NEAR(rate(MachineId::T3d, Style::BufferPacking,
                     P::contiguous(), P::strided(64)),
                25.2, 0.5);
    EXPECT_NEAR(rate(MachineId::T3d, Style::BufferPacking,
                     P::strided(64), P::contiguous()),
                17.1, 1.1);
    EXPECT_NEAR(rate(MachineId::T3d, Style::BufferPacking,
                     P::indexed(), P::indexed()),
                14.2, 0.5);
}

// ---------------------------------------------------------------------
// §5.1.2: chained predictions on the T3D.
// ---------------------------------------------------------------------

TEST(StrategiesT3d, ChainedMatchesPaperPredictions)
{
    // Paper: |1Q'1| = 70, |1Q'64| = 38, |wQ'w| = 32.
    EXPECT_NEAR(rate(MachineId::T3d, Style::Chained, P::contiguous(),
                     P::contiguous()),
                70.0, 1.5);
    EXPECT_NEAR(rate(MachineId::T3d, Style::Chained, P::contiguous(),
                     P::strided(64)),
                38.0, 0.5);
    EXPECT_NEAR(rate(MachineId::T3d, Style::Chained, P::indexed(),
                     P::indexed()),
                32.0, 0.5);
}

TEST(StrategiesT3d, ChainedUsesDepositEngine)
{
    auto s = buildProgram(MachineId::T3d, Style::Chained, P::indexed(),
                          P::indexed());
    ASSERT_TRUE(s);
    EXPECT_EQ(s->expr->format(), "wS0 || Nadp || 0Dw");
}

// ---------------------------------------------------------------------
// §5.1.3: buffer-packing predictions on the Paragon. The contiguous
// cases are capped by the store-bandwidth constraint 2|Q| <= |0C1|.
// ---------------------------------------------------------------------

TEST(StrategiesParagon, BufferPackingMatchesPaperPredictions)
{
    // Paper: |1Q1| = 20.7, |1Q64| = 16.1, |wQw| = 16.2.
    EXPECT_NEAR(rate(MachineId::Paragon, Style::BufferPacking,
                     P::contiguous(), P::contiguous()),
                20.7, 0.3);
    EXPECT_NEAR(rate(MachineId::Paragon, Style::BufferPacking,
                     P::contiguous(), P::strided(64)),
                16.1, 0.3);
    EXPECT_NEAR(rate(MachineId::Paragon, Style::BufferPacking,
                     P::indexed(), P::indexed()),
                16.2, 0.3);
}

TEST(StrategiesParagon, PackingConstraintBinds)
{
    // Without the constraint the contiguous case would reach ~24.6;
    // the cap at storeOnly/2 = 20.7 must be what limits it.
    auto s = buildProgram(MachineId::Paragon, Style::BufferPacking,
                          P::contiguous(), P::contiguous());
    ASSERT_TRUE(s);
    ASSERT_EQ(s->constraints.size(), 1u);
    EXPECT_DOUBLE_EQ(s->constraints[0].limit / s->constraints[0]
                         .demandFactor,
                     20.7);
}

// ---------------------------------------------------------------------
// §5.1.4: chained predictions on the Paragon (co-processor receive).
// ---------------------------------------------------------------------

TEST(StrategiesParagon, ChainedMatchesPaperPredictions)
{
    // Paper: |1Q'1| = 52, |1Q'64| = 38, |wQ'w| = 36.
    EXPECT_NEAR(rate(MachineId::Paragon, Style::Chained,
                     P::contiguous(), P::contiguous()),
                52.0, 0.5);
    EXPECT_NEAR(rate(MachineId::Paragon, Style::Chained,
                     P::contiguous(), P::strided(64)),
                38.0, 0.5);
    EXPECT_NEAR(rate(MachineId::Paragon, Style::Chained, P::indexed(),
                     P::indexed()),
                36.0, 0.5);
}

TEST(StrategiesParagon, ChainedUsesCoProcessorReceive)
{
    auto s = buildProgram(MachineId::Paragon, Style::Chained,
                          P::strided(16), P::contiguous());
    ASSERT_TRUE(s);
    EXPECT_EQ(s->expr->format(), "16S0 || Nadp || 0R1");
}

// ---------------------------------------------------------------------
// Table 5: strided loads vs strided stores.
// ---------------------------------------------------------------------

TEST(Table5, T3dModelColumns)
{
    // Paper Table 5 (T3D model): 1Q16 packing 25.4, chained 38.0;
    //                            16Q1 packing 18.4, chained 38.0.
    EXPECT_NEAR(rate(MachineId::T3d, Style::BufferPacking,
                     P::contiguous(), P::strided(16)),
                25.4, 0.3);
    EXPECT_NEAR(rate(MachineId::T3d, Style::Chained, P::contiguous(),
                     P::strided(16)),
                38.0, 0.3);
    EXPECT_NEAR(rate(MachineId::T3d, Style::BufferPacking,
                     P::strided(16), P::contiguous()),
                18.4, 0.3);
    EXPECT_NEAR(rate(MachineId::T3d, Style::Chained, P::strided(16),
                     P::contiguous()),
                38.0, 0.3);
}

TEST(Table5, ParagonModelColumns)
{
    // Paper Table 5 (Paragon model): 1Q16 packing 18.3, chained 32;
    //                                16Q1 packing 20.7, chained 42.
    EXPECT_NEAR(rate(MachineId::Paragon, Style::BufferPacking,
                     P::contiguous(), P::strided(16)),
                18.3, 0.6);
    EXPECT_NEAR(rate(MachineId::Paragon, Style::BufferPacking,
                     P::strided(16), P::contiguous()),
                20.7, 0.3);
    EXPECT_NEAR(rate(MachineId::Paragon, Style::Chained,
                     P::strided(16), P::contiguous()),
                42.0, 0.5);
}

TEST(Table5, CrossoverDirectionPreserved)
{
    // On the T3D, moving the stride to the store side (16Q1 -> 1Q16)
    // helps buffer packing; on the Paragon the load side is stronger.
    double t3d_strided_store = rate(MachineId::T3d, Style::BufferPacking,
                                    P::contiguous(), P::strided(16));
    double t3d_strided_load = rate(MachineId::T3d, Style::BufferPacking,
                                   P::strided(16), P::contiguous());
    EXPECT_GT(t3d_strided_store, t3d_strided_load);

    double par_chained_load = rate(MachineId::Paragon, Style::Chained,
                                   P::strided(16), P::contiguous());
    double par_chained_store = rate(MachineId::Paragon, Style::Chained,
                                    P::contiguous(), P::strided(16));
    EXPECT_GT(par_chained_load, par_chained_store);
}

// ---------------------------------------------------------------------
// Cross-style invariants.
// ---------------------------------------------------------------------

class ChainedBeatsPackingOnT3d
    : public testing::TestWithParam<std::pair<P, P>>
{};

TEST_P(ChainedBeatsPackingOnT3d, ForNonContiguousPatterns)
{
    auto [x, y] = GetParam();
    double chained = rate(MachineId::T3d, Style::Chained, x, y);
    double packing = rate(MachineId::T3d, Style::BufferPacking, x, y);
    EXPECT_GT(chained, packing)
        << x.label() << "Q" << y.label();
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, ChainedBeatsPackingOnT3d,
    testing::Values(std::pair(P::contiguous(), P::contiguous()),
                    std::pair(P::contiguous(), P::strided(16)),
                    std::pair(P::strided(16), P::contiguous()),
                    std::pair(P::contiguous(), P::strided(64)),
                    std::pair(P::strided(64), P::contiguous()),
                    std::pair(P::indexed(), P::indexed()),
                    std::pair(P::contiguous(), P::indexed()),
                    std::pair(P::indexed(), P::contiguous())));

TEST(Strategies, PvmSlowerThanPacking)
{
    for (auto id : {MachineId::T3d, MachineId::Paragon}) {
        double pvm = rate(id, Style::Pvm, P::contiguous(),
                          P::strided(64));
        double packing = rate(id, Style::BufferPacking, P::contiguous(),
                              P::strided(64));
        EXPECT_LT(pvm, packing) << machineName(id);
    }
}

TEST(Strategies, DmaDirectOnlyOnParagonContiguous)
{
    EXPECT_FALSE(buildProgram(MachineId::T3d, Style::DmaDirect,
                              P::contiguous(), P::contiguous())
                     .has_value());
    EXPECT_FALSE(buildProgram(MachineId::Paragon, Style::DmaDirect,
                              P::contiguous(), P::strided(4))
                     .has_value());
    auto s = buildProgram(MachineId::Paragon, Style::DmaDirect,
                          P::contiguous(), P::contiguous());
    ASSERT_TRUE(s);
    EXPECT_EQ(s->expr->format(), "1F0 || Nd || 0D1");
}

TEST(Strategies, StyleNames)
{
    EXPECT_EQ(styleName(Style::BufferPacking), "buffer-packing");
    EXPECT_EQ(styleName(Style::Chained), "chained");
    EXPECT_EQ(styleName(Style::Pvm), "pvm");
    EXPECT_EQ(styleName(Style::DmaDirect), "dma-direct");
}

} // namespace
