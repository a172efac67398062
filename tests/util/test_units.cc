#include <gtest/gtest.h>

#include "util/units.h"

namespace {

using namespace ct::util;

TEST(Units, ToMBpsBasic)
{
    // 150 MHz clock, 150e6 cycles = 1 second, 93e6 bytes -> 93 MB/s.
    EXPECT_DOUBLE_EQ(toMBps(93'000'000, 150'000'000, 150e6), 93.0);
}

TEST(Units, ToSeconds)
{
    EXPECT_DOUBLE_EQ(toSeconds(150'000'000, 150e6), 1.0);
    EXPECT_DOUBLE_EQ(toSeconds(75'000'000, 150e6), 0.5);
}

TEST(Units, WordSize)
{
    EXPECT_EQ(wordBytes, 8u);
}

TEST(UnitsDeath, ZeroCycles)
{
    EXPECT_EXIT((void)toMBps(1, 0, 1e6), testing::ExitedWithCode(1),
                "zero cycle");
}

} // namespace
