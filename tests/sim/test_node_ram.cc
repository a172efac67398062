#include <gtest/gtest.h>

#include <thread>
#include <vector>

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

TEST(NodeRam, ZeroStoreLeavesPageVirtual)
{
    // A never-written page already reads zero, so storing zero to it
    // must not materialize it.
    NodeRam ram(1 << 20);
    ram.writeWord(64, 0);
    ram.writeWord(72, 0); // through the cached zero translation
    ram.writeDouble(4096 + 8, 0.0);
    EXPECT_EQ(ram.residentPages(), 0u);
    EXPECT_EQ(ram.readWord(64), 0u);
    // Zero overwriting a nonzero word of a materialized page is kept.
    ram.writeWord(128, 5);
    ram.writeWord(128, 0);
    EXPECT_EQ(ram.residentPages(), 1u);
    EXPECT_EQ(ram.readWord(128), 0u);
}

TEST(NodeRam, StraddlingWordMaterializesOnlyItsNonzeroHalf)
{
    NodeRam ram(1 << 20);
    constexpr Bytes page = NodeRam::pageBytes();
    // Little-endian bytes: the low four (zero) land at the end of
    // page 0, the high four (nonzero) at the start of page 1.
    ram.writeWord(page - 4, 0x1122334400000000ULL);
    EXPECT_EQ(ram.residentPages(), 1u);
    EXPECT_EQ(ram.readWord(page - 4), 0x1122334400000000ULL);
    EXPECT_EQ(ram.readWord(page), 0x11223344u);
    // The other way round: only page 2 (the low half) materializes.
    ram.writeWord(3 * page - 4, 0x00000000aabbccddULL);
    EXPECT_EQ(ram.residentPages(), 2u);
    EXPECT_EQ(ram.readWord(3 * page - 4), 0x00000000aabbccddULL);
    EXPECT_EQ(ram.readWord(3 * page), 0u);
}

TEST(NodeRam, ReadThenNonzeroWriteMaterializesPage)
{
    // The read caches the page's zero translation; the write after
    // it must replace that translation, not store into the zero frame.
    NodeRam ram(1 << 20);
    constexpr Bytes page = NodeRam::pageBytes();
    EXPECT_EQ(ram.readWord(5 * page + 16), 0u);
    ram.writeWord(5 * page + 16, 77);
    EXPECT_EQ(ram.residentPages(), 1u);
    EXPECT_EQ(ram.readWord(5 * page + 16), 77u);
    EXPECT_EQ(ram.readWord(5 * page + 24), 0u);
    // The same through the bytes of a word straddling into the page.
    EXPECT_EQ(ram.readWord(7 * page - 4), 0u);
    ram.writeWord(7 * page - 4, ~0ULL);
    EXPECT_EQ(ram.residentPages(), 3u);
    EXPECT_EQ(ram.readWord(7 * page - 4), ~0ULL);
}

TEST(NodeRam, UnwrittenPageReadsZeroAfterOtherNodesWrite)
{
    // Every node's virtual pages share one zero frame, which farm
    // workers read concurrently; no node's writes may show through
    // it on another node or thread.
    constexpr Bytes page = NodeRam::pageBytes();
    constexpr Addr pages = 8;
    NodeRam idle(1 << 20);
    std::vector<std::thread> writers;
    for (std::uint64_t t = 1; t <= 3; ++t) {
        writers.emplace_back([=] {
            for (std::uint64_t n = 0; n < 4; ++n) {
                NodeRam ram(1 << 20);
                for (Addr p = 0; p < pages; ++p) {
                    // Cache the zero translation before writing.
                    EXPECT_EQ(ram.readWord(p * page + 8), 0u);
                    for (Addr off = 0; off < page; off += 8)
                        ram.writeWord(p * page + off,
                                      (t << 40) | (n << 32) | off | 1);
                }
                EXPECT_EQ(ram.residentPages(), pages);
            }
        });
    }
    std::uint64_t nonzero = 0;
    for (int round = 0; round < 16; ++round)
        for (Addr addr = 0; addr < pages * page; addr += 8)
            nonzero += idle.readWord(addr) != 0;
    for (std::thread &writer : writers)
        writer.join();
    EXPECT_EQ(nonzero, 0u);
    EXPECT_EQ(idle.residentPages(), 0u);
    for (Addr addr = 0; addr < pages * page; addr += 8)
        ASSERT_EQ(idle.readWord(addr), 0u) << addr;
    // A NodeRam built after the writes sees the same zeros.
    NodeRam fresh(1 << 20);
    EXPECT_EQ(fresh.readWord(3 * page + 8), 0u);
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
