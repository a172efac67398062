#include <gtest/gtest.h>

#include "core/analytic_backend.h"
#include "core/machine_params.h"

namespace {

using namespace ct::core;
using P = AccessPattern;

// Table 1 of the paper: local memory-to-memory copies (MB/s).
TEST(MachineParams, Table1T3d)
{
    auto t = paperTable(MachineId::T3d);
    EXPECT_DOUBLE_EQ(
        *t.lookup(localCopy(P::contiguous(), P::contiguous())), 93.0);
    EXPECT_DOUBLE_EQ(
        *t.lookup(localCopy(P::contiguous(), P::strided(64))), 67.9);
    EXPECT_DOUBLE_EQ(
        *t.lookup(localCopy(P::strided(64), P::contiguous())), 33.3);
    EXPECT_DOUBLE_EQ(
        *t.lookup(localCopy(P::contiguous(), P::indexed())), 38.5);
    EXPECT_DOUBLE_EQ(
        *t.lookup(localCopy(P::indexed(), P::contiguous())), 32.9);
}

TEST(MachineParams, Table1Paragon)
{
    auto t = paperTable(MachineId::Paragon);
    EXPECT_DOUBLE_EQ(
        *t.lookup(localCopy(P::contiguous(), P::contiguous())), 67.6);
    EXPECT_DOUBLE_EQ(
        *t.lookup(localCopy(P::contiguous(), P::strided(64))), 27.6);
    EXPECT_DOUBLE_EQ(
        *t.lookup(localCopy(P::strided(64), P::contiguous())), 31.1);
    EXPECT_DOUBLE_EQ(
        *t.lookup(localCopy(P::contiguous(), P::indexed())), 35.2);
    EXPECT_DOUBLE_EQ(
        *t.lookup(localCopy(P::indexed(), P::contiguous())), 45.1);
}

// Table 2: sending transfers.
TEST(MachineParams, Table2)
{
    auto t3d = paperTable(MachineId::T3d);
    EXPECT_DOUBLE_EQ(*t3d.lookup(loadSend(P::contiguous())), 126.0);
    EXPECT_FALSE(t3d.lookup(fetchSend(P::contiguous())).has_value());
    EXPECT_DOUBLE_EQ(*t3d.lookup(loadSend(P::strided(64))), 35.0);
    EXPECT_DOUBLE_EQ(*t3d.lookup(loadSend(P::indexed())), 32.0);

    auto par = paperTable(MachineId::Paragon);
    EXPECT_DOUBLE_EQ(*par.lookup(loadSend(P::contiguous())), 52.0);
    EXPECT_DOUBLE_EQ(*par.lookup(fetchSend(P::contiguous())), 160.0);
    EXPECT_DOUBLE_EQ(*par.lookup(loadSend(P::strided(64))), 42.0);
    EXPECT_DOUBLE_EQ(*par.lookup(loadSend(P::indexed())), 36.0);
}

// Table 3: receiving transfers.
TEST(MachineParams, Table3)
{
    auto t3d = paperTable(MachineId::T3d);
    EXPECT_FALSE(t3d.lookup(receiveStore(P::contiguous())).has_value());
    EXPECT_DOUBLE_EQ(*t3d.lookup(receiveDeposit(P::contiguous())),
                     142.0);
    EXPECT_DOUBLE_EQ(*t3d.lookup(receiveDeposit(P::strided(64))), 52.0);
    EXPECT_DOUBLE_EQ(*t3d.lookup(receiveDeposit(P::indexed())), 52.0);

    auto par = paperTable(MachineId::Paragon);
    EXPECT_DOUBLE_EQ(*par.lookup(receiveStore(P::contiguous())), 82.0);
    EXPECT_DOUBLE_EQ(*par.lookup(receiveDeposit(P::contiguous())),
                     160.0);
    EXPECT_DOUBLE_EQ(*par.lookup(receiveStore(P::strided(64))), 38.0);
    EXPECT_FALSE(
        par.lookup(receiveDeposit(P::strided(64))).has_value());
    EXPECT_DOUBLE_EQ(*par.lookup(receiveStore(P::indexed())), 42.0);
}

// Table 4: network bandwidth vs congestion.
TEST(MachineParams, Table4)
{
    auto t3d = paperTable(MachineId::T3d);
    EXPECT_DOUBLE_EQ(*t3d.lookupNetwork(TransferOp::NetData, 1), 142.0);
    EXPECT_DOUBLE_EQ(*t3d.lookupNetwork(TransferOp::NetData, 2), 69.0);
    EXPECT_DOUBLE_EQ(*t3d.lookupNetwork(TransferOp::NetData, 4), 35.0);
    EXPECT_DOUBLE_EQ(*t3d.lookupNetwork(TransferOp::NetAddrData, 1),
                     62.0);
    EXPECT_DOUBLE_EQ(*t3d.lookupNetwork(TransferOp::NetAddrData, 2),
                     38.0);
    EXPECT_DOUBLE_EQ(*t3d.lookupNetwork(TransferOp::NetAddrData, 4),
                     20.0);

    auto par = paperTable(MachineId::Paragon);
    EXPECT_DOUBLE_EQ(*par.lookupNetwork(TransferOp::NetData, 1), 176.0);
    EXPECT_DOUBLE_EQ(*par.lookupNetwork(TransferOp::NetData, 2), 90.0);
    EXPECT_DOUBLE_EQ(*par.lookupNetwork(TransferOp::NetData, 4), 44.0);
    EXPECT_DOUBLE_EQ(*par.lookupNetwork(TransferOp::NetAddrData, 2),
                     45.0);
}

TEST(MachineParams, StrideCurvesAreMonotone)
{
    for (auto id : {MachineId::T3d, MachineId::Paragon}) {
        auto t = paperTable(id);
        double prev_store = 1e9, prev_load = 1e9;
        for (std::uint32_t s : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
            auto store =
                t.lookup(localCopy(P::contiguous(), P::strided(s)));
            auto load =
                t.lookup(localCopy(P::strided(s), P::contiguous()));
            ASSERT_TRUE(store && load) << machineName(id) << " " << s;
            EXPECT_LE(*store, prev_store);
            EXPECT_LE(*load, prev_load);
            prev_store = *store;
            prev_load = *load;
        }
    }
}

TEST(MachineParams, T3dStoresBeatLoadsWhenStrided)
{
    // The T3D write-back queue favours strided stores; strided loads
    // fall to single-word speed (paper Figure 4).
    auto t = paperTable(MachineId::T3d);
    for (std::uint32_t s : {2u, 8u, 16u, 64u}) {
        auto store = t.lookup(localCopy(P::contiguous(), P::strided(s)));
        auto load = t.lookup(localCopy(P::strided(s), P::contiguous()));
        EXPECT_GT(*store, *load) << s;
    }
}

TEST(MachineParams, ParagonIndexedLoadsBeatIndexedStores)
{
    // The i860 prefetch queue pipelines gathers (wC1 = 45.1 beats
    // 1Cw = 35.2).
    auto t = paperTable(MachineId::Paragon);
    auto gather = t.lookup(localCopy(P::indexed(), P::contiguous()));
    auto scatter = t.lookup(localCopy(P::contiguous(), P::indexed()));
    EXPECT_GT(*gather, *scatter);
}

TEST(MachineParams, Caps)
{
    auto t3d = paperCaps(MachineId::T3d);
    EXPECT_TRUE(t3d.depositAnyPattern);
    EXPECT_FALSE(t3d.hasFetchSend);
    EXPECT_FALSE(t3d.coProcReceive);
    EXPECT_EQ(t3d.defaultCongestion, 2.0);
    EXPECT_EQ(t3d.clockHz, 150e6);

    auto par = paperCaps(MachineId::Paragon);
    EXPECT_FALSE(par.depositAnyPattern);
    EXPECT_TRUE(par.depositContiguous);
    EXPECT_TRUE(par.hasFetchSend);
    EXPECT_TRUE(par.coProcReceive);
    EXPECT_EQ(par.clockHz, 50e6);
}

TEST(MachineParams, Names)
{
    EXPECT_EQ(machineName(MachineId::T3d), "T3D");
    EXPECT_EQ(machineName(MachineId::Paragon), "Paragon");
    EXPECT_EQ(paperTable(MachineId::T3d).machineName(), "T3D");
}

TEST(MachineParams, PaperModelIsBuiltOnce)
{
    for (MachineId id : {MachineId::T3d, MachineId::Paragon}) {
        const ThroughputTable &table = paperTable(id);
        const AnalyticBackend &backend = paperBackend(id);
        EXPECT_EQ(&paperTable(id), &table);
        EXPECT_EQ(&paperBackend(id), &backend);
        EXPECT_EQ(table.machineName(), machineName(id));
        EXPECT_EQ(backend.table().machineName(), machineName(id));
        EXPECT_EQ(backend.profile().clockHz, paperCaps(id).clockHz);
    }
    EXPECT_NE(&paperTable(MachineId::T3d),
              &paperTable(MachineId::Paragon));
    EXPECT_NE(&paperBackend(MachineId::T3d),
              &paperBackend(MachineId::Paragon));
}

} // namespace
