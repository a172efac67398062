#include <gtest/gtest.h>

#include "core/parser.h"

namespace {

using namespace ct::core;

ExprPtr
ok(std::string_view text)
{
    auto result = parse(text);
    auto *expr = std::get_if<ExprPtr>(&result);
    EXPECT_NE(expr, nullptr) << text;
    if (!expr)
        return nullptr;
    return *expr;
}

ParseError
bad(std::string_view text)
{
    auto result = parse(text);
    auto *err = std::get_if<ParseError>(&result);
    EXPECT_NE(err, nullptr) << text;
    return err ? *err : ParseError{};
}

TEST(Parser, SingleLeaf)
{
    auto e = ok("64C1");
    ASSERT_TRUE(e);
    EXPECT_EQ(e->kind(), ExprKind::Leaf);
    EXPECT_EQ(e->transfer().name(), "64C1");
}

TEST(Parser, AllLeafShapes)
{
    for (const char *text :
         {"1C1", "1C64", "wC1", "1Cw", "1S0", "16S0", "wS0", "1F0",
          "0R1", "0R64", "0Rw", "0D1", "0Dw", "Nd", "Nadp"}) {
        auto e = ok(text);
        ASSERT_TRUE(e) << text;
        EXPECT_EQ(e->format(), text);
    }
}

TEST(Parser, CongestionAnnotation)
{
    auto e = ok("Nd@4");
    ASSERT_TRUE(e);
    EXPECT_EQ(e->congestionOverride(), 4.0);
    auto f = ok("Nadp@2.5");
    ASSERT_TRUE(f);
    EXPECT_EQ(f->congestionOverride(), 2.5);
}

TEST(Parser, CongestionIsAFiniteUnsignedDecimal)
{
    auto e = ok("1S0 || Nd@1.5 || 0D1");
    ASSERT_TRUE(e);
    EXPECT_EQ(e->format(), "1S0 || Nd@1.5 || 0D1");
    EXPECT_EQ(ok("Nd@1e1")->congestionOverride(), 10.0);
    // A NaN congestion panics the evaluator and an infinite one
    // rates 0 MB/s, so neither may parse.
    for (const char *text : {"1S0 || Nd@nan || 0D1", "Nd@inf", "Nd@NAN",
                             "Nadp@infinity", "Nd@1e999", "Nd@0x2"}) {
        ParseError err = bad(text);
        EXPECT_NE(err.message.find("congestion"), std::string::npos)
            << text << ": " << err.message;
    }
}

TEST(Parser, BufferPackingFormulaRoundTrip)
{
    const char *text = "1C1 o (1S0 || Nd || 0D1) o 1C64";
    auto e = ok(text);
    ASSERT_TRUE(e);
    EXPECT_EQ(e->format(), text);
}

TEST(Parser, ChainedFormulaRoundTrip)
{
    const char *text = "wS0 || Nadp || 0Dw";
    auto e = ok(text);
    ASSERT_TRUE(e);
    EXPECT_EQ(e->format(), text);
}

TEST(Parser, PrecedenceParallelBindsTighter)
{
    // a o b || c parses as a o (b || c).
    auto e = ok("1C1 o 1S0 || Nd");
    ASSERT_TRUE(e);
    EXPECT_EQ(e->kind(), ExprKind::Seq);
    ASSERT_EQ(e->children().size(), 2u);
    EXPECT_EQ(e->children()[1]->kind(), ExprKind::Par);
}

TEST(Parser, NestedParens)
{
    auto e = ok("((1S0 || Nd)) o 0R1");
    ASSERT_TRUE(e);
    EXPECT_EQ(e->kind(), ExprKind::Seq);
}

TEST(Parser, FlattensChains)
{
    auto e = ok("1S0 || Nd || 0D1");
    ASSERT_TRUE(e);
    EXPECT_EQ(e->children().size(), 3u);
}

TEST(Parser, ErrorsReportPosition)
{
    auto err = bad("1C1 o");
    EXPECT_FALSE(err.message.empty());

    err = bad("1C1 | Nd");
    EXPECT_NE(err.message.find("'||'"), std::string::npos);
    EXPECT_EQ(err.position, 4u);
}

TEST(Parser, RejectsMalformedLeaves)
{
    bad("1X1");     // unknown op letter
    bad("C1");      // missing read pattern
    bad("1C");      // missing write pattern
    bad("1S1");     // load-send must write to port 0
    bad("0C1");     // local copy cannot use pattern 0
    bad("1R1");     // receive must read from port 0
    bad("Nd@0.5");  // congestion < 1
    bad("Nd@x");    // non-numeric congestion
}

TEST(Parser, RejectsUnbalancedParens)
{
    bad("(1S0 || Nd");
    bad("1S0 || Nd)");
}

TEST(Parser, RejectsTrailingTokens)
{
    auto err = bad("1C1 1C1");
    EXPECT_NE(err.message.find("trailing"), std::string::npos);
}

TEST(Parser, RejectsEmptyInput)
{
    bad("");
    bad("   ");
}

TEST(Parser, ParseOrDieReturnsExpression)
{
    auto e = parseOrDie("1S0 || Nd || 0D1");
    EXPECT_EQ(e->format(), "1S0 || Nd || 0D1");
}

TEST(ParserDeath, ParseOrDieOnGarbage)
{
    EXPECT_EXIT((void)parseOrDie("@@@"), testing::ExitedWithCode(1),
                "parse error");
}

// ---------------------------------------------------------------------
// Exhaustive round-trips: parse(format(e)) == format(e) for every
// basic transfer over every pattern kind, and for composed formulas.
// ---------------------------------------------------------------------

TEST(Parser, RoundTripsEveryPatternKind)
{
    using P = AccessPattern;
    const std::vector<P> kinds = {P::contiguous(), P::strided(2),
                                  P::strided(16), P::strided(1024),
                                  P::indexed()};
    std::vector<ExprPtr> leaves;
    for (const P &x : kinds) {
        for (const P &y : kinds)
            leaves.push_back(TransferExpr::leaf(localCopy(x, y)));
        leaves.push_back(TransferExpr::leaf(loadSend(x)));
        leaves.push_back(TransferExpr::leaf(fetchSend(x)));
        leaves.push_back(TransferExpr::leaf(receiveStore(x)));
        leaves.push_back(TransferExpr::leaf(receiveDeposit(x)));
    }
    leaves.push_back(TransferExpr::leaf(netData()));
    leaves.push_back(TransferExpr::leaf(netAddrData()));
    for (const ExprPtr &leaf : leaves) {
        auto round = ok(leaf->format());
        ASSERT_TRUE(round) << leaf->format();
        EXPECT_EQ(round->format(), leaf->format());
    }
    // Composed both ways around every leaf.
    for (const ExprPtr &leaf : leaves) {
        auto composed = TransferExpr::seq({
            TransferExpr::leaf(localCopy(AccessPattern::contiguous(),
                                         AccessPattern::contiguous())),
            TransferExpr::par({leaf, TransferExpr::leaf(netData())})});
        auto round = ok(composed->format());
        ASSERT_TRUE(round) << composed->format();
        EXPECT_EQ(round->format(), composed->format());
    }
}

} // namespace
