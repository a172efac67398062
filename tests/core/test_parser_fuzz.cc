/**
 * @file
 * Parser round-trip fuzzing: random well-formed expression trees are
 * formatted and re-parsed; the result must format identically and
 * evaluate to the same throughput.
 */

#include <gtest/gtest.h>

#include "core/algebra.h"
#include "core/machine_params.h"
#include "core/parser.h"
#include "util/rng.h"

namespace {

using namespace ct::core;
using P = AccessPattern;
using E = TransferExpr;

P
randomMemoryPattern(ct::util::Rng &rng)
{
    switch (rng.nextBelow(4)) {
      case 0:
        return P::contiguous();
      case 1:
        return P::strided(
            static_cast<std::uint32_t>(2 + rng.nextBelow(100)));
      case 2: {
        auto block = static_cast<std::uint32_t>(2 + rng.nextBelow(4));
        return P::strided(block + 1 +
                              static_cast<std::uint32_t>(
                                  rng.nextBelow(60)),
                          block);
      }
      default:
        return P::indexed();
    }
}

/** A random single basic transfer (leaf). */
ExprPtr
randomLeaf(ct::util::Rng &rng)
{
    switch (rng.nextBelow(7)) {
      case 0:
        return E::leaf(localCopy(randomMemoryPattern(rng),
                                 randomMemoryPattern(rng)));
      case 1:
        return E::leaf(loadSend(randomMemoryPattern(rng)));
      case 2:
        return E::leaf(fetchSend(randomMemoryPattern(rng)));
      case 3:
        return E::leaf(receiveStore(randomMemoryPattern(rng)));
      case 4:
        return E::leaf(receiveDeposit(randomMemoryPattern(rng)));
      case 5:
        return rng.nextBelow(2) ? E::leaf(netData())
                                : E::leaf(netData(), 2.0);
      default:
        return rng.nextBelow(2)
                   ? E::leaf(netAddrData())
                   : E::leaf(netAddrData(),
                             1.0 + static_cast<double>(
                                       rng.nextBelow(4)));
    }
}

/**
 * A random tree. Sequential handoffs are made legal by stitching
 * compatible leaves (parallel children need no pattern agreement, so
 * deep trees use parallel composition freely).
 */
ExprPtr
randomTree(ct::util::Rng &rng, int depth)
{
    if (depth == 0)
        return randomLeaf(rng);
    std::vector<ExprPtr> parts;
    std::uint64_t n = 2 + rng.nextBelow(3);
    for (std::uint64_t i = 0; i < n; ++i)
        parts.push_back(randomTree(rng, depth - 1));
    return E::par(std::move(parts));
}

class ParserFuzz : public testing::TestWithParam<std::uint64_t>
{};

TEST_P(ParserFuzz, FormatParseFormatIsStable)
{
    ct::util::Rng rng(GetParam());
    for (int i = 0; i < 50; ++i) {
        auto tree = randomTree(rng, static_cast<int>(
                                        1 + rng.nextBelow(3)));
        std::string text = tree->format();
        auto reparsed = parse(text);
        auto *expr = std::get_if<ExprPtr>(&reparsed);
        ASSERT_NE(expr, nullptr) << text;
        EXPECT_EQ((*expr)->format(), text);
    }
}

TEST_P(ParserFuzz, ReparsedTreesEvaluateIdentically)
{
    ct::util::Rng rng(GetParam() + 1000);
    auto table = paperTable(MachineId::T3d);
    EvalContext ctx;
    ctx.table = &table;
    ctx.congestion = 2.0;
    for (int i = 0; i < 30; ++i) {
        auto tree = randomTree(rng, 2);
        auto reparsed = parseOrDie(tree->format());
        auto a = evaluate(tree, ctx);
        auto b = evaluate(reparsed, ctx);
        ASSERT_EQ(a.has_value(), b.has_value()) << tree->format();
        if (a && b) {
            EXPECT_DOUBLE_EQ(*a, *b) << tree->format();
        }
    }
}

TEST_P(ParserFuzz, SequentialChainsRoundTrip)
{
    // Legal sequential chains: gather o middle o scatter with
    // matching contiguous handoffs, random outer patterns.
    ct::util::Rng rng(GetParam() + 2000);
    for (int i = 0; i < 50; ++i) {
        auto x = randomMemoryPattern(rng);
        auto y = randomMemoryPattern(rng);
        auto tree = E::seq({
            E::leaf(localCopy(x, P::contiguous())),
            E::par({E::leaf(loadSend(P::contiguous())),
                    E::leaf(netData()),
                    E::leaf(receiveDeposit(P::contiguous()))}),
            E::leaf(localCopy(P::contiguous(), y))});
        EXPECT_EQ(tree->validate(), std::nullopt);
        auto text = tree->format();
        EXPECT_EQ(parseOrDie(text)->format(), text);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz,
                         testing::Range<std::uint64_t>(1, 9));

} // namespace
