#include <gtest/gtest.h>

#include "sim/node_ram.h"

namespace {

using namespace ct::sim;

TEST(NodeRam, WordRoundTrip)
{
    NodeRam ram(4096);
    ram.writeWord(8, 0xdeadbeefcafef00dULL);
    EXPECT_EQ(ram.readWord(8), 0xdeadbeefcafef00dULL);
}

TEST(NodeRam, DoubleRoundTrip)
{
    NodeRam ram(4096);
    ram.writeDouble(16, 3.25);
    EXPECT_DOUBLE_EQ(ram.readDouble(16), 3.25);
}

TEST(NodeRam, ZeroInitialized)
{
    NodeRam ram(4096);
    EXPECT_EQ(ram.readWord(0), 0u);
    EXPECT_EQ(ram.readWord(4088), 0u);
}

TEST(NodeRam, AllocAligns)
{
    NodeRam ram(4096);
    ram.alloc(10, 64);
    Addr second = ram.alloc(8, 64);
    EXPECT_EQ(second % 64, 0u);
}

TEST(NodeRam, AllocSkewSeparatesArrays)
{
    NodeRam ram(1 << 20, 1000);
    Addr a = ram.alloc(4096, 64);
    Addr b = ram.alloc(4096, 64);
    EXPECT_GE(b - (a + 4096), 1000u - 64u);
}

TEST(NodeRam, ResetReclaimsAndClears)
{
    NodeRam ram(4096);
    Addr a = ram.alloc(1024);
    ram.writeWord(a, 7);
    ram.reset();
    EXPECT_EQ(ram.readWord(a), 0u);
    EXPECT_EQ(ram.alloc(1024), a);
}

TEST(NodeRam, SparseBackingCountsOnlyTouchedPages)
{
    // A huge address space costs nothing until written; reads of
    // untouched pages stay zero without materializing them.
    NodeRam ram(1ull << 40);
    EXPECT_EQ(ram.residentPages(), 0u);
    EXPECT_EQ(ram.readWord(1ull << 39), 0u);
    EXPECT_EQ(ram.residentPages(), 0u);
    ram.writeWord(1ull << 39, 42);
    EXPECT_EQ(ram.residentPages(), 1u);
    EXPECT_EQ(ram.readWord(1ull << 39), 42u);
}

TEST(NodeRam, ResidencyLimitRecyclesFifo)
{
    NodeRam ram(1 << 24);
    ram.setResidencyLimit(4);
    constexpr Bytes page = NodeRam::pageBytes();
    for (Addr p = 0; p < 16; ++p)
        ram.writeWord(p * page, p + 1);
    EXPECT_LE(ram.residentPages(), 4u);
    EXPECT_EQ(ram.peakResidentPages(), 4u);
    EXPECT_EQ(ram.recycledPages(), 12u);
    // Recycled pages read as zero again; the newest survive.
    EXPECT_EQ(ram.readWord(0), 0u);
    EXPECT_EQ(ram.readWord(15 * page), 16u);
}

TEST(NodeRam, PinnedRangesSurviveRecycling)
{
    NodeRam ram(1 << 24);
    constexpr Bytes page = NodeRam::pageBytes();
    ram.writeWord(0, 99); // materialized before the pin
    ram.pinRange(0, 8);
    ram.setResidencyLimit(2);
    for (Addr p = 1; p < 32; ++p)
        ram.writeWord(p * page, p);
    EXPECT_EQ(ram.readWord(0), 99u);
    EXPECT_GT(ram.recycledPages(), 0u);
}

TEST(NodeRam, WritesSpanningPagesStayIntact)
{
    NodeRam ram(1 << 20);
    constexpr Bytes page = NodeRam::pageBytes();
    Addr addr = page - 4; // straddles the page boundary
    ram.writeWord(addr, 0x1122334455667788ULL);
    EXPECT_EQ(ram.readWord(addr), 0x1122334455667788ULL);
}

TEST(NodeRamDeath, OutOfMemory)
{
    NodeRam ram(1024);
    EXPECT_EXIT(ram.alloc(2048), testing::ExitedWithCode(1),
                "out of memory");
}

TEST(NodeRamDeath, OutOfRangeAccess)
{
    NodeRam ram(64);
    EXPECT_EXIT(ram.readWord(60), testing::ExitedWithCode(1),
                "beyond size");
}

TEST(NodeRamDeath, AccessWrappingPastAddressSpaceEnd)
{
    // addr + 8 wraps to a small number here; the bound must still
    // reject the access instead of materializing pages for it.
    NodeRam ram(1 << 20);
    const Addr top = ~Addr{0} - 3; // 2^64 - 4
    EXPECT_EXIT(ram.writeWord(top, 42), testing::ExitedWithCode(1),
                "beyond size");
    EXPECT_EXIT((void)ram.readWord(top), testing::ExitedWithCode(1),
                "beyond size");
    EXPECT_EXIT(ram.pinRange(top, 8), testing::ExitedWithCode(1),
                "beyond size");
}

TEST(NodeRamDeath, AllocWrappingPastAddressSpaceEnd)
{
    NodeRam ram(1 << 20);
    ram.alloc(64);
    // base (64) + bytes wraps to 32, which is within capacity.
    EXPECT_EXIT(ram.alloc(~Bytes{0} - 31), testing::ExitedWithCode(1),
                "out of memory");
}

TEST(NodeRamDeath, BadAlignment)
{
    NodeRam ram(1024);
    EXPECT_EXIT(ram.alloc(8, 48), testing::ExitedWithCode(1),
                "power of two");
}

} // namespace
