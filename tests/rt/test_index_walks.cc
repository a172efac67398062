/**
 * @file
 * Tests of walkForIndices(), the walk builder behind both
 * redistribution workloads and the irregular gather: a sorted list of
 * word offsets becomes a contiguous, (block-)strided or indexed walk,
 * and a flow built from two such lists delivers bit-exactly through
 * both communication styles, including the paper's complex-column
 * use case, plus randomized round trips.
 */

#include <gtest/gtest.h>

#include "rt/chained_layer.h"
#include "rt/packing_layer.h"
#include "rt/workload.h"

namespace {

using namespace ct;
using namespace ct::rt;
using Offsets = std::vector<std::uint64_t>;

/** @p count blocks of @p block words, one every @p stride words. */
Offsets
blocks(std::uint64_t count, std::uint64_t block, std::uint64_t stride)
{
    Offsets offsets;
    for (std::uint64_t b = 0; b < count; ++b)
        for (std::uint64_t w = 0; w < block; ++w)
            offsets.push_back(b * stride + w);
    return offsets;
}

Offsets
contiguous(std::uint64_t words)
{
    return blocks(1, words, words);
}

/**
 * One flow src -> dst reading the words at @p src_offsets and writing
 * them at @p dst_offsets, built as the redistribution workloads build
 * theirs: an indexed destination gets a sender-side index replica.
 */
Flow
indexFlow(sim::Machine &m, NodeId src, NodeId dst,
          const Offsets &src_offsets, const Offsets &dst_offsets)
{
    Flow flow;
    flow.src = src;
    flow.dst = dst;
    flow.words = src_offsets.size();
    Addr src_base = m.node(src).ram().alloc((src_offsets.back() + 1) * 8);
    Addr dst_base = m.node(dst).ram().alloc((dst_offsets.back() + 1) * 8);
    flow.srcWalk = walkForIndices(src_offsets, src_base, m.node(src));
    flow.dstWalk = walkForIndices(dst_offsets, dst_base, m.node(dst));
    flow.dstWalkOnSender =
        flow.dstWalk.pattern.isIndexed()
            ? walkForIndices(dst_offsets, dst_base, m.node(src))
            : flow.dstWalk;
    return flow;
}

template <typename Layer>
std::uint64_t
sendIndexed(const Offsets &src_offsets, const Offsets &dst_offsets)
{
    sim::Machine m(sim::t3dConfig({2, 1, 1}));
    CommOp op;
    op.flows.push_back(indexFlow(m, 0, 1, src_offsets, dst_offsets));
    seedSources(m, op);
    Layer layer;
    layer.run(m, op);
    return verifyDelivery(m, op);
}

TEST(IndexWalks, ContiguousToVector)
{
    EXPECT_EQ(sendIndexed<ChainedLayer>(contiguous(64),
                                        blocks(64, 1, 16)),
              0u);
    EXPECT_EQ(sendIndexed<PackingLayer>(contiguous(64),
                                        blocks(64, 1, 16)),
              0u);
}

TEST(IndexWalks, ComplexColumnExchange)
{
    // A complex column (2-word blocks, stride 2n) into a contiguous
    // receive buffer -- the §2.2 complex-number scenario.
    auto column = blocks(64, 2, 128);
    EXPECT_EQ(sendIndexed<ChainedLayer>(column, contiguous(128)), 0u);
    EXPECT_EQ(sendIndexed<PackingLayer>(column, contiguous(128)), 0u);
}

TEST(IndexWalks, IndexedToIndexed)
{
    Offsets scatter{0, 3, 7, 9, 12, 30};
    Offsets gather{0, 1, 10, 11, 20, 23};
    EXPECT_EQ(sendIndexed<ChainedLayer>(gather, scatter), 0u);
    EXPECT_EQ(sendIndexed<PackingLayer>(gather, scatter), 0u);
}

TEST(IndexWalks, WalkPatternsFollowClassification)
{
    sim::Machine m(sim::t3dConfig({2, 1, 1}));
    auto flow = indexFlow(m, 0, 1, blocks(8, 2, 16), contiguous(16));
    EXPECT_TRUE(flow.srcWalk.pattern.isStrided());
    EXPECT_EQ(flow.srcWalk.pattern.stride(), 16u);
    EXPECT_EQ(flow.srcWalk.pattern.block(), 2u);
    EXPECT_TRUE(flow.dstWalk.pattern.isContiguous());
}

TEST(IndexWalks, RegularListStartsAtItsFirstOffset)
{
    // A list that does not start at 0 walks from its first element;
    // only an indexed walk keeps the array base and an index array.
    sim::Machine m(sim::t3dConfig({2, 1, 1}));
    Addr base = m.node(0).ram().alloc(64 * 8);
    auto contig = walkForIndices({5, 6, 7, 8}, base, m.node(0));
    EXPECT_TRUE(contig.pattern.isContiguous());
    EXPECT_EQ(contig.base, base + 5 * 8);
    auto strided = walkForIndices({3, 7, 11}, base, m.node(0));
    EXPECT_TRUE(strided.pattern.isStrided());
    EXPECT_EQ(strided.base, base + 3 * 8);
    EXPECT_EQ(strided.elementAddr(m.node(0).ram(), 2), base + 11 * 8);
    auto indexed = walkForIndices({2, 3, 9}, base, m.node(0));
    EXPECT_TRUE(indexed.pattern.isIndexed());
    EXPECT_EQ(indexed.base, base);
}

TEST(IndexWalks, IrregularListGetsIndexArray)
{
    sim::Machine m(sim::t3dConfig({2, 1, 1}));
    Offsets irregular{0, 3, 4, 9};
    auto flow = indexFlow(m, 0, 1, irregular, contiguous(4));
    EXPECT_TRUE(flow.srcWalk.pattern.isIndexed());
    EXPECT_NE(flow.srcWalk.indexBase, 0u);
    // The index array holds the offsets themselves.
    for (std::uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(flow.srcWalk.elementAddr(m.node(0).ram(), i),
                  flow.srcWalk.base + irregular[i] * 8);
}

TEST(IndexWalks, SenderSideIndexReplica)
{
    sim::Machine m(sim::t3dConfig({2, 1, 1}));
    auto flow = indexFlow(m, 0, 1, contiguous(4), {0, 3, 4, 9});
    ASSERT_TRUE(flow.dstWalk.pattern.isIndexed());
    // The sender's replica addresses must match the receiver's.
    for (std::uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(flow.dstWalkOnSender.elementAddr(m.node(0).ram(), i),
                  flow.dstWalk.elementAddr(m.node(1).ram(), i));
}

TEST(IndexWalksDeath, EmptyListIsFatal)
{
    sim::Machine m(sim::t3dConfig({2, 1, 1}));
    EXPECT_EXIT((void)walkForIndices({}, 0, m.node(0)),
                testing::ExitedWithCode(1), "empty index list");
}

// ---------------------------------------------------------------------
// Randomized round trips: arbitrary sorted offset lists through both
// layers must always deliver bit-exactly.
// ---------------------------------------------------------------------

class IndexWalkFuzz : public testing::TestWithParam<std::uint64_t>
{};

Offsets
randomSortedOffsets(util::Rng &rng, std::uint64_t words)
{
    Offsets offsets;
    std::uint64_t cursor = 0;
    for (std::uint64_t i = 0; i < words; ++i) {
        cursor += rng.nextBelow(5); // gaps of 0..4 words
        offsets.push_back(cursor);
        cursor += 1;
    }
    return offsets;
}

TEST_P(IndexWalkFuzz, RandomLayoutsRoundTrip)
{
    util::Rng rng(GetParam());
    std::uint64_t words = 32 + rng.nextBelow(200);
    auto src_offsets = randomSortedOffsets(rng, words);
    auto dst_offsets = randomSortedOffsets(rng, words);

    sim::Machine m(sim::t3dConfig({2, 1, 1}));
    CommOp op;
    op.flows.push_back(indexFlow(m, 0, 1, src_offsets, dst_offsets));
    op.flows.push_back(indexFlow(m, 1, 0, dst_offsets, src_offsets));
    seedSources(m, op);
    ChainedLayer chained;
    chained.run(m, op);
    EXPECT_EQ(verifyDelivery(m, op), 0u);

    sim::Machine m2(sim::paragonConfig({2, 1}));
    CommOp op2;
    op2.flows.push_back(indexFlow(m2, 0, 1, src_offsets, dst_offsets));
    op2.flows.push_back(indexFlow(m2, 1, 0, dst_offsets, src_offsets));
    seedSources(m2, op2);
    PackingLayer packing;
    packing.run(m2, op2);
    EXPECT_EQ(verifyDelivery(m2, op2), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexWalkFuzz,
                         testing::Range<std::uint64_t>(1, 13));

} // namespace
