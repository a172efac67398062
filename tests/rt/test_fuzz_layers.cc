/**
 * @file
 * Randomized end-to-end property tests: arbitrary communication
 * operations -- random flow sets with random pattern pairs, word
 * counts and node pairs -- must always deliver bit-exactly through
 * every layer on every machine, also behind the reliable transport on
 * a lossy wire, and the layers' makespans must stay ordered
 * (pvm >= packing, both > 0).
 */

#include <gtest/gtest.h>

#include "core/style_registry.h"
#include "rt/chained_layer.h"
#include "rt/packing_layer.h"
#include "rt/reliable_layer.h"
#include "rt/sim_backend.h"
#include "rt/workload.h"

namespace {

using namespace ct;
using namespace ct::rt;
using P = core::AccessPattern;

P
randomPattern(util::Rng &rng)
{
    switch (rng.nextBelow(5)) {
      case 0:
        return P::contiguous();
      case 1:
        return P::strided(
            static_cast<std::uint32_t>(2 + rng.nextBelow(63)));
      case 2: {
        auto block =
            static_cast<std::uint32_t>(2 + rng.nextBelow(6));
        auto stride = static_cast<std::uint32_t>(
            block + 1 + rng.nextBelow(64));
        return P::strided(stride, block);
      }
      case 3:
        return P::indexed();
      default:
        return P::strided(
            static_cast<std::uint32_t>(2 + rng.nextBelow(14)));
    }
}

CommOp
randomOp(sim::Machine &machine, util::Rng &rng)
{
    CommOp op;
    op.name = "fuzz";
    int nodes = machine.nodeCount();
    std::uint64_t flow_count = 2 + rng.nextBelow(6);
    for (std::uint64_t f = 0; f < flow_count; ++f) {
        auto src = static_cast<NodeId>(rng.nextBelow(
            static_cast<std::uint64_t>(nodes)));
        auto dst = static_cast<NodeId>(rng.nextBelow(
            static_cast<std::uint64_t>(nodes)));
        if (dst == src)
            dst = (dst + 1) % nodes;
        std::uint64_t words = 1 + rng.nextBelow(700);
        op.flows.push_back(makeFlow(machine, src, dst,
                                    randomPattern(rng),
                                    randomPattern(rng), words, rng));
    }
    return op;
}

class LayerFuzz : public testing::TestWithParam<std::uint64_t>
{};

TEST_P(LayerFuzz, ChainedDeliversOnT3d)
{
    util::Rng rng(GetParam() * 77 + 1);
    sim::Machine m(sim::t3dConfig({2, 2, 1}));
    auto op = randomOp(m, rng);
    seedSources(m, op);
    ChainedLayer layer;
    auto r = layer.run(m, op);
    EXPECT_EQ(verifyDelivery(m, op), 0u);
    EXPECT_GT(r.makespan, 0u);
}

TEST_P(LayerFuzz, ChainedDeliversOnParagon)
{
    util::Rng rng(GetParam() * 77 + 2);
    sim::Machine m(sim::paragonConfig({4, 1}));
    auto op = randomOp(m, rng);
    seedSources(m, op);
    ChainedLayer layer;
    layer.run(m, op);
    EXPECT_EQ(verifyDelivery(m, op), 0u);
}

TEST_P(LayerFuzz, PackingDeliversOnBothMachines)
{
    util::Rng rng(GetParam() * 77 + 3);
    sim::Machine t3d(sim::t3dConfig({2, 2, 1}));
    auto op = randomOp(t3d, rng);
    seedSources(t3d, op);
    PackingLayer packing;
    packing.run(t3d, op);
    EXPECT_EQ(verifyDelivery(t3d, op), 0u);

    sim::Machine paragon(sim::paragonConfig({4, 1}));
    auto op2 = randomOp(paragon, rng);
    seedSources(paragon, op2);
    packing.run(paragon, op2);
    EXPECT_EQ(verifyDelivery(paragon, op2), 0u);
}

TEST_P(LayerFuzz, PvmNeverFasterThanPacking)
{
    util::Rng rng(GetParam() * 77 + 4);
    sim::Machine m1(sim::t3dConfig({2, 2, 1}));
    auto op1 = randomOp(m1, rng);
    seedSources(m1, op1);
    PackingLayer packing;
    auto rp = packing.run(m1, op1);

    util::Rng rng2(GetParam() * 77 + 4);
    sim::Machine m2(sim::t3dConfig({2, 2, 1}));
    auto op2 = randomOp(m2, rng2);
    seedSources(m2, op2);
    // The PVM layer production runs: the registry's pvm program.
    auto pvm = lowerProgram(*core::buildProgram(
        core::MachineId::T3d, "pvm", P::contiguous(), P::contiguous()));
    auto rv = pvm->run(m2, op2);

    // Same seed -> same operation; PVM adds copies and overhead.
    EXPECT_GE(rv.makespan, rp.makespan);
}

TEST_P(LayerFuzz, PvmDeliversOnBothMachines)
{
    util::Rng rng(GetParam() * 77 + 5);
    for (auto id : {core::MachineId::T3d, core::MachineId::Paragon}) {
        sim::Machine m(id == core::MachineId::T3d
                           ? sim::t3dConfig({2, 2, 1})
                           : sim::paragonConfig({4, 1}));
        auto op = randomOp(m, rng);
        seedSources(m, op);
        auto pvm = lowerProgram(*core::buildProgram(
            id, "pvm", P::contiguous(), P::contiguous()));
        auto r = pvm->run(m, op);
        EXPECT_EQ(verifyDelivery(m, op), 0u);
        EXPECT_GT(r.makespan, 0u);
    }
}

TEST_P(LayerFuzz, ReliablePackingDeliversUnderDrops)
{
    util::Rng rng(GetParam() * 77 + 6);
    auto cfg = sim::paragonConfig({4, 1});
    cfg.faults = sim::FaultSpec::parse(
        "drop=0.2,seed=" + std::to_string(GetParam() + 1));
    sim::Machine m(cfg);
    auto op = randomOp(m, rng);
    seedSources(m, op);
    ReliableLayer layer(std::make_unique<PackingLayer>());
    auto r = layer.run(m, op);
    EXPECT_EQ(verifyDelivery(m, op), 0u);
    EXPECT_GT(layer.stats().retransmits, 0u);
    EXPECT_EQ(layer.stats().abandoned, 0u);
    EXPECT_FALSE(r.degraded);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LayerFuzz,
                         testing::Range<std::uint64_t>(0, 12));

} // namespace
