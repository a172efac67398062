#include <gtest/gtest.h>

#include "core/style_registry.h"
#include "rt/packing_layer.h"
#include "rt/sim_backend.h"
#include "rt/workload.h"

namespace {

using namespace ct;
using namespace ct::rt;
using P = core::AccessPattern;

/** The PVM layer production runs: the registry's pvm program,
 *  lowered to packing through system buffers. */
std::unique_ptr<MessageLayer>
pvmLayer()
{
    return lowerProgram(*core::buildProgram(
        core::MachineId::T3d, "pvm", P::contiguous(), P::contiguous()));
}

class PackingDelivery
    : public testing::TestWithParam<std::tuple<P, P>>
{};

TEST_P(PackingDelivery, T3dBitExact)
{
    auto [x, y] = GetParam();
    sim::Machine m(sim::t3dConfig({2, 1, 1}));
    auto op = pairExchange(m, x, y, 300);
    seedSources(m, op);
    PackingLayer layer;
    layer.run(m, op);
    EXPECT_EQ(verifyDelivery(m, op), 0u);
}

TEST_P(PackingDelivery, ParagonBitExact)
{
    auto [x, y] = GetParam();
    sim::Machine m(sim::paragonConfig({2, 1}));
    auto op = pairExchange(m, x, y, 300);
    seedSources(m, op);
    PackingLayer layer;
    layer.run(m, op);
    EXPECT_EQ(verifyDelivery(m, op), 0u);
}

TEST_P(PackingDelivery, PvmBitExact)
{
    auto [x, y] = GetParam();
    sim::Machine m(sim::t3dConfig({2, 1, 1}));
    auto op = pairExchange(m, x, y, 300);
    seedSources(m, op);
    pvmLayer()->run(m, op);
    EXPECT_EQ(verifyDelivery(m, op), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, PackingDelivery,
    testing::Combine(testing::Values(P::contiguous(), P::strided(4),
                                     P::strided(64), P::indexed()),
                     testing::Values(P::contiguous(), P::strided(4),
                                     P::strided(64), P::indexed())));

TEST(PackingLayer, NetworkSeesOnlyContiguousBlocks)
{
    // Buffer packing never puts address-data pairs on the wire.
    sim::Machine m(sim::t3dConfig({2, 1, 1}));
    auto op = pairExchange(m, P::indexed(), P::indexed(), 512);
    seedSources(m, op);
    PackingLayer layer;
    layer.run(m, op);
    // adp wire bytes would exceed 8 per payload word; data-only never
    // does (header amortizes below 2 bytes per word at chunk size).
    auto &stats = m.network().stats();
    EXPECT_LT(static_cast<double>(stats.wireBytes),
              static_cast<double>(stats.payloadBytes) * 1.5);
}

TEST(PackingLayer, PvmSlowerThanPlainPacking)
{
    auto cfg = sim::t3dConfig({2, 1, 1});
    auto run_layer = [&](MessageLayer &layer) {
        sim::Machine m(cfg);
        auto op =
            pairExchange(m, P::contiguous(), P::strided(16), 4096);
        seedSources(m, op);
        auto r = layer.run(m, op);
        EXPECT_EQ(verifyDelivery(m, op), 0u);
        return r.perNodeMBps(m);
    };
    PackingLayer plain;
    double packing = run_layer(plain);
    double pvm = run_layer(*pvmLayer());
    EXPECT_GT(packing, pvm);
}

TEST(PackingLayer, MessageOverheadDominatesSmallMessages)
{
    auto cfg = sim::t3dConfig({2, 1, 1});
    auto rate = [&](std::uint64_t words) {
        sim::Machine m(cfg);
        auto op = pairExchange(m, P::contiguous(), P::contiguous(),
                               words);
        seedSources(m, op);
        // PVM's per-message overheads, spelled out: the assertion
        // is about them, not about the registry's current costs.
        PackingOptions opts;
        opts.systemBufferCopies = true;
        opts.senderMessageOverhead = 4000;
        opts.receiverMessageOverhead = 2000;
        opts.layerName = "pvm";
        PackingLayer pvm(opts);
        return pvm.run(m, op).perNodeMBps(m);
    };
    // Throughput must rise steeply with message size under PVM.
    EXPECT_GT(rate(16384), 2.0 * rate(128));
}

TEST(PackingLayer, ParagonDmaFeedsTheNetwork)
{
    sim::Machine m(sim::paragonConfig({2, 1}));
    auto op = pairExchange(m, P::strided(8), P::contiguous(), 2048);
    seedSources(m, op);
    PackingLayer layer;
    layer.run(m, op);
    EXPECT_EQ(verifyDelivery(m, op), 0u);
    EXPECT_GT(m.node(0).fetchEngine().stats().transfers, 0u);
}

TEST(PackingLayer, T3dFeedsFromProcessor)
{
    sim::Machine m(sim::t3dConfig({2, 1, 1}));
    auto op = pairExchange(m, P::strided(8), P::contiguous(), 2048);
    seedSources(m, op);
    PackingLayer layer;
    layer.run(m, op);
    EXPECT_EQ(verifyDelivery(m, op), 0u);
    EXPECT_EQ(m.node(0).fetchEngine().stats().transfers, 0u);
}

TEST(PackingLayer, MultiFlowGroupsShareOneMessage)
{
    // Several small flows to the same partner are packed together;
    // correctness must hold across chunk boundaries that span flows.
    sim::Machine m(sim::t3dConfig({2, 1, 1}));
    util::Rng rng(3);
    CommOp op;
    for (int i = 0; i < 7; ++i)
        op.flows.push_back(makeFlow(m, 0, 1, P::contiguous(),
                                    P::strided(4), 37, rng));
    for (int i = 0; i < 7; ++i)
        op.flows.push_back(makeFlow(m, 1, 0, P::strided(4),
                                    P::contiguous(), 23, rng));
    seedSources(m, op);
    PackingLayer layer;
    layer.run(m, op);
    EXPECT_EQ(verifyDelivery(m, op), 0u);
}

TEST(PackingLayer, NameReflectsOptions)
{
    EXPECT_EQ(PackingLayer().name(), "buffer-packing");
    EXPECT_EQ(pvmLayer()->name(), "pvm");
}

} // namespace
