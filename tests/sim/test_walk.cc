#include <gtest/gtest.h>

#include <vector>

#include "sim/walk.h"
#include "util/rng.h"

namespace {

using namespace ct::sim;

TEST(PatternWalk, ContiguousAddresses)
{
    NodeRam ram(4096);
    auto w = contiguousWalk(128);
    EXPECT_EQ(w.elementAddr(ram, 0), 128u);
    EXPECT_EQ(w.elementAddr(ram, 5), 128u + 40u);
    EXPECT_FALSE(w.needsIndexLoad());
}

TEST(PatternWalk, StridedAddresses)
{
    NodeRam ram(65536);
    auto w = stridedWalk(0, 16);
    EXPECT_EQ(w.elementAddr(ram, 0), 0u);
    EXPECT_EQ(w.elementAddr(ram, 3), 3u * 16u * 8u);
}

TEST(PatternWalk, StrideOneDegeneratesToContiguous)
{
    NodeRam ram(4096);
    auto w = stridedWalk(64, 1);
    EXPECT_TRUE(w.pattern.isContiguous());
    EXPECT_EQ(w.elementAddr(ram, 2), 64u + 16u);
}

TEST(PatternWalk, IndexedFollowsIndexArray)
{
    NodeRam ram(4096);
    Addr idx = 1024;
    ram.writeWord(idx + 0, 7);
    ram.writeWord(idx + 8, 0);
    ram.writeWord(idx + 16, 3);
    auto w = indexedWalk(0, idx);
    EXPECT_TRUE(w.needsIndexLoad());
    EXPECT_EQ(w.elementAddr(ram, 0), 56u);
    EXPECT_EQ(w.elementAddr(ram, 1), 0u);
    EXPECT_EQ(w.elementAddr(ram, 2), 24u);
}

TEST(PatternWalk, IndexAddr)
{
    auto w = indexedWalk(0, 512);
    EXPECT_EQ(w.indexAddr(0), 512u);
    EXPECT_EQ(w.indexAddr(9), 512u + 72u);
}

/** Addresses a typed cursor yields for elements [first, first+n). */
std::vector<Addr>
cursorAddrs(const NodeRam &ram, const PatternWalk &walk,
            std::uint64_t first, std::uint64_t n)
{
    std::vector<Addr> out;
    withCursor(walk, first, [&](auto cur) {
        for (std::uint64_t i = 0; i < n; ++i, cur.advance())
            out.push_back(cur.elementAddr(ram));
    });
    return out;
}

TEST(TypedCursor, MatchesElementAddrFromAnyFirst)
{
    // Every cursor type must stream exactly the addresses
    // PatternWalk::elementAddr computes one element at a time, from
    // any starting element: mid-block strided starts, block sizes
    // one below the stride, strides far beyond the block.
    NodeRam ram(1 << 20);
    Addr index = ram.alloc(1024 * 8);
    ct::util::Rng rng(3);
    for (std::uint64_t i = 0; i < 1024; ++i)
        ram.writeWord(index + i * 8, rng.nextBelow(4096));
    std::vector<PatternWalk> walks = {
        contiguousWalk(4096),    stridedWalk(4096, 2),
        stridedWalk(4096, 17),   stridedWalk(4096, 5, 4),
        stridedWalk(4096, 9, 3), stridedWalk(4096, 1000, 7),
        indexedWalk(4096, index),
    };
    for (const PatternWalk &walk : walks) {
        for (int trial = 0; trial < 20; ++trial) {
            std::uint64_t first = rng.nextBelow(512);
            std::uint64_t n = rng.nextBelow(300);
            std::vector<Addr> got = cursorAddrs(ram, walk, first, n);
            ASSERT_EQ(got.size(), n);
            for (std::uint64_t i = 0; i < n; ++i)
                ASSERT_EQ(got[i], walk.elementAddr(ram, first + i))
                    << walk.pattern.label() << " first " << first
                    << " element " << i;
        }
    }
}

TEST(PatternWalkDeath, FixedHasNoCursor)
{
    PatternWalk w{0, ct::core::AccessPattern::fixed(), 0};
    EXPECT_EXIT(withCursor(w, 0, [](auto) {}),
                testing::ExitedWithCode(1), "fixed pattern");
}

TEST(PatternWalkDeath, FixedHasNoAddress)
{
    NodeRam ram(64);
    PatternWalk w{0, ct::core::AccessPattern::fixed(), 0};
    EXPECT_EXIT((void)w.elementAddr(ram, 0),
                testing::ExitedWithCode(1), "fixed pattern");
}

} // namespace
