#include <gtest/gtest.h>

#include <string>

#include "sim/ring.h"

namespace {

using ct::sim::Ring;

TEST(Ring, FullRingGrowsAndKeepsOrder)
{
    // A push onto a full ring doubles the storage; the elements keep
    // their order even when the old storage had wrapped.
    Ring<std::string> ring(2);
    ring.push_back("a");
    ring.push_back("b");
    ring.pop_front();
    ring.push_back("c"); // wrapped: storage is {c, b}
    EXPECT_TRUE(ring.full());
    ring.push_back("d");
    ring.push_back("e");
    EXPECT_EQ(ring.size(), 4u);
    for (const char *want : {"b", "c", "d", "e"}) {
        EXPECT_EQ(ring.front(), want);
        ring.pop_front();
    }
    EXPECT_TRUE(ring.empty());
}

TEST(Ring, EmptyRingGrowsFromNothing)
{
    Ring<int> ring;
    EXPECT_TRUE(ring.full()); // no storage yet
    for (int i = 0; i < 9; ++i)
        ring.push_back(i);
    for (int i = 0; i < 9; ++i) {
        EXPECT_EQ(ring[static_cast<std::size_t>(i)], i);
    }
    EXPECT_EQ(ring.back(), 8);
}

} // namespace
