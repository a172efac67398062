#include <gtest/gtest.h>

#include "core/expr.h"

namespace {

using namespace ct::core;
using P = AccessPattern;
using E = TransferExpr;

TEST(BasicTransferNames, FormulaNotation)
{
    EXPECT_EQ(localCopy(P::strided(64), P::contiguous()).name(), "64C1");
    EXPECT_EQ(loadSend(P::indexed()).name(), "wS0");
    EXPECT_EQ(fetchSend(P::contiguous()).name(), "1F0");
    EXPECT_EQ(receiveStore(P::strided(64)).name(), "0R64");
    EXPECT_EQ(receiveDeposit(P::indexed()).name(), "0Dw");
    EXPECT_EQ(netData().name(), "Nd");
    EXPECT_EQ(netAddrData().name(), "Nadp");
}

TEST(Expr, LeafAccessors)
{
    auto e = E::leaf(loadSend(P::strided(16)));
    EXPECT_EQ(e->kind(), ExprKind::Leaf);
    EXPECT_EQ(e->transfer().name(), "16S0");
    EXPECT_FALSE(e->congestionOverride().has_value());
}

TEST(Expr, CongestionOverrideOnlyOnNetwork)
{
    auto e = E::leaf(netData(), 4.0);
    EXPECT_EQ(e->congestionOverride(), 4.0);
}

TEST(ExprDeath, CongestionOverrideOnLocalCopy)
{
    EXPECT_EXIT(
        (void)E::leaf(localCopy(P::contiguous(), P::contiguous()), 2.0),
        testing::ExitedWithCode(1), "congestion override");
}

TEST(Expr, EndToEndPatternsBufferPacking)
{
    // 64C1 o (1S0 || Nd || 0D1) o 1C16
    auto e = E::seq({
        E::leaf(localCopy(P::strided(64), P::contiguous())),
        E::par({E::leaf(loadSend(P::contiguous())), E::leaf(netData()),
                E::leaf(receiveDeposit(P::contiguous()))}),
        E::leaf(localCopy(P::contiguous(), P::strided(16)))});
    ASSERT_TRUE(e->readPattern().has_value());
    ASSERT_TRUE(e->writePattern().has_value());
    EXPECT_EQ(e->readPattern()->label(), "64");
    EXPECT_EQ(e->writePattern()->label(), "16");
    EXPECT_EQ(e->validate(), std::nullopt);
}

TEST(Expr, EndToEndPatternsChained)
{
    // wS0 || Nadp || 0Dw
    auto e = E::par({E::leaf(loadSend(P::indexed())),
                     E::leaf(netAddrData()),
                     E::leaf(receiveDeposit(P::indexed()))});
    EXPECT_EQ(e->readPattern()->label(), "w");
    EXPECT_EQ(e->writePattern()->label(), "w");
    EXPECT_EQ(e->validate(), std::nullopt);
}

TEST(Expr, ValidateCatchesPatternMismatch)
{
    // 1C64 o 1C1 is illegal: stage 1 writes stride 64, stage 2 reads
    // contiguously.
    auto e = E::seq({
        E::leaf(localCopy(P::contiguous(), P::strided(64))),
        E::leaf(localCopy(P::contiguous(), P::contiguous()))});
    auto err = e->validate();
    ASSERT_TRUE(err.has_value());
    EXPECT_NE(err->find("pattern mismatch"), std::string::npos);
}

TEST(Expr, ValidateRecursesIntoChildren)
{
    auto bad = E::seq({
        E::leaf(localCopy(P::contiguous(), P::strided(64))),
        E::leaf(localCopy(P::contiguous(), P::contiguous()))});
    auto wrapped = E::par({bad, E::leaf(netData())});
    EXPECT_TRUE(wrapped->validate().has_value());
}

TEST(Expr, NetworkLegHasNoMemoryPatterns)
{
    auto e = E::leaf(netData());
    EXPECT_FALSE(e->readPattern().has_value());
    EXPECT_FALSE(e->writePattern().has_value());
}

TEST(Expr, FormatMatchesPaperNotation)
{
    auto e = E::seq({
        E::leaf(localCopy(P::contiguous(), P::contiguous())),
        E::par({E::leaf(loadSend(P::contiguous())), E::leaf(netData()),
                E::leaf(receiveDeposit(P::contiguous()))}),
        E::leaf(localCopy(P::contiguous(), P::strided(64)))});
    EXPECT_EQ(e->format(), "1C1 o (1S0 || Nd || 0D1) o 1C64");
}

TEST(Expr, FormatCongestionAnnotation)
{
    auto e = E::par({E::leaf(loadSend(P::contiguous())),
                     E::leaf(netData(), 4.0)});
    EXPECT_EQ(e->format(), "1S0 || Nd@4");
}

TEST(ExprDeath, SeqNeedsTwoParts)
{
    EXPECT_EXIT((void)E::seq({E::leaf(netData())}),
                testing::ExitedWithCode(1), ">= 2 parts");
}

TEST(ExprDeath, FixedPatternInLocalCopy)
{
    EXPECT_EXIT((void)localCopy(P::fixed(), P::contiguous()),
                testing::ExitedWithCode(1), "fixed pattern");
}

TEST(ExprDeath, LoadSendNeedsMemoryRead)
{
    EXPECT_EXIT((void)loadSend(P::fixed()), testing::ExitedWithCode(1),
                "must touch memory");
}

} // namespace
