#include <gtest/gtest.h>

#include "sim/bus.h"

namespace {

using namespace ct::sim;

TEST(Bus, UnmodeledBusIsFree)
{
    Bus bus({0, 0});
    EXPECT_FALSE(bus.modeled());
    EXPECT_EQ(bus.transact(BusMaster::Processor, 64, 0), 0u);
}

TEST(Bus, TransferTimeFromBandwidth)
{
    Bus bus({8, 0});
    EXPECT_EQ(bus.transact(BusMaster::Processor, 64, 0), 8u);
    EXPECT_EQ(bus.transact(BusMaster::Processor, 1, 100), 1u);
}

TEST(Bus, BackToBackWaits)
{
    Bus bus({8, 0});
    bus.transact(BusMaster::Processor, 64, 0); // busy till 8
    Cycles total = bus.transact(BusMaster::Processor, 8, 4);
    EXPECT_EQ(total, 5u); // wait 4 + transfer 1
    EXPECT_EQ(bus.stats().waitCycles, 4u);
}

TEST(Bus, ArbitrationOnOwnerSwitch)
{
    Bus bus({8, 4});
    bus.transact(BusMaster::Processor, 8, 0);
    Cycles same = bus.transact(BusMaster::Processor, 8, 100);
    EXPECT_EQ(same, 1u);
    Cycles switched = bus.transact(BusMaster::CoProcessor, 8, 200);
    EXPECT_EQ(switched, 5u); // 4 arbitration + 1 transfer
    EXPECT_EQ(bus.stats().ownerSwitches, 1u);
}

TEST(Bus, FirstOwnerPaysNoArbitration)
{
    Bus bus({8, 4});
    EXPECT_EQ(bus.transact(BusMaster::Dma, 8, 0), 1u);
}

TEST(Bus, InterleavingTwoMastersIsExpensive)
{
    // The paper reports up to 50% loss for fine-grain interleaving of
    // processor and co-processor accesses (§5.1.4).
    Bus bus({8, 4});
    Cycles interleaved = 0;
    for (int i = 0; i < 10; ++i) {
        interleaved += bus.transact(BusMaster::Processor, 8,
                                    1000 * (i + 1));
        interleaved += bus.transact(BusMaster::CoProcessor, 8,
                                    1000 * (i + 1) + 500);
    }
    Bus bus2({8, 4});
    Cycles batched = 0;
    for (int i = 0; i < 10; ++i)
        batched += bus2.transact(BusMaster::Processor, 8,
                                 1000 * (i + 1));
    for (int i = 0; i < 10; ++i)
        batched += bus2.transact(BusMaster::CoProcessor, 8,
                                 100000 + 1000 * i);
    EXPECT_GT(interleaved, batched + 10);
}

TEST(BusDeath, WidthNotPowerOfTwo)
{
    EXPECT_EXIT(Bus({12, 0}), testing::ExitedWithCode(1),
                "power of two");
}

TEST(BusDeath, ZeroBytes)
{
    Bus bus({8, 0});
    EXPECT_EXIT(bus.transact(BusMaster::Processor, 0, 0),
                testing::ExitedWithCode(1), "zero-byte");
}

} // namespace
