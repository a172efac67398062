/**
 * @file
 * The closed-loop resilience controller: pure-policy unit tests
 * against synthetic observation streams (the controller never touches
 * the simulator in observe(), so every decision path is drivable from
 * a table), flow-slicing algebra, and end-to-end adaptive runs under
 * injected faults with replay-fingerprint checks.
 */

#include <gtest/gtest.h>

#include "core/style_registry.h"
#include "rt/resilience.h"
#include "rt/sim_backend.h"
#include "rt/workload.h"
#include "sim/machine.h"

namespace {

using namespace ct;
using namespace ct::rt;
using P = core::AccessPattern;

RoundObservation
lossRound(int round, std::uint64_t packets, std::uint64_t retrans)
{
    RoundObservation obs;
    obs.round = round;
    obs.dataPackets = packets;
    obs.retransmits = retrans;
    obs.roundWords = 1024;
    obs.roundMakespan = 50000;
    return obs;
}

// --- flow slicing ----------------------------------------------------

TEST(SliceFlow, ContiguousSliceOffsetsBytes)
{
    auto cfg = sim::t3dConfig({2, 1, 1});
    sim::Machine m(cfg);
    CommOp op = pairExchange(m, P::contiguous(), P::contiguous(), 64);
    const Flow &flow = op.flows.at(0);
    EXPECT_EQ(sliceAlignment(flow), 1u);
    Flow s = sliceFlow(flow, 16, 8);
    EXPECT_EQ(s.words, 8u);
    EXPECT_EQ(s.srcWalk.base, flow.srcWalk.base + 16 * 8);
    EXPECT_EQ(s.dstWalk.base, flow.dstWalk.base + 16 * 8);
}

TEST(SliceFlow, StridedSliceAdvancesByStride)
{
    auto cfg = sim::t3dConfig({2, 1, 1});
    sim::Machine m(cfg);
    // Workload walks are stride-4, block-1: each element sits one
    // stride apart, so any word offset is slice-aligned.
    CommOp op = pairExchange(m, P::strided(4), P::strided(4), 64);
    const Flow &flow = op.flows.at(0);
    EXPECT_EQ(sliceAlignment(flow), 1u);
    std::uint64_t stride = flow.srcWalk.pattern.stride();
    Flow s = sliceFlow(flow, 8, 4);
    EXPECT_EQ(s.srcWalk.base, flow.srcWalk.base + 8 * stride * 8);
    EXPECT_EQ(s.words, 4u);
}

TEST(SliceFlow, BlockedStridedSliceSkipsWholeBlocks)
{
    // A block-4 walk must slice on block boundaries, advancing one
    // stride per block.
    Flow flow;
    flow.src = 0;
    flow.dst = 1;
    flow.words = 32;
    flow.srcWalk = sim::stridedWalk(0x1000, 8, 4);
    flow.dstWalk = sim::contiguousWalk(0x9000);
    flow.dstWalkOnSender = flow.dstWalk;
    EXPECT_EQ(sliceAlignment(flow), 4u);
    Flow s = sliceFlow(flow, 8, 8);
    EXPECT_EQ(s.srcWalk.base, 0x1000u + 2 * 8 * 8);
    EXPECT_EQ(s.dstWalk.base, 0x9000u + 8 * 8);
    EXPECT_EXIT(sliceFlow(flow, 2, 4), testing::ExitedWithCode(1),
                "not aligned");
}

TEST(SliceFlow, SlicesCoverTheFlowExactly)
{
    auto cfg = sim::t3dConfig({2, 1, 1});
    sim::Machine m(cfg);
    CommOp op = pairExchange(m, P::strided(4), P::strided(4), 120);
    const Flow &flow = op.flows.at(0);
    std::uint64_t covered = 0;
    std::uint64_t align = sliceAlignment(flow);
    std::uint64_t per = (flow.words + 7) / 8;
    per = (per + align - 1) / align * align;
    for (int r = 0; r < 8; ++r) {
        std::uint64_t begin =
            std::min(flow.words, static_cast<std::uint64_t>(r) * per);
        std::uint64_t end =
            r == 7 ? flow.words
                   : std::min(flow.words,
                              (static_cast<std::uint64_t>(r) + 1) *
                                  per);
        covered += end - begin;
    }
    EXPECT_EQ(covered, flow.words);
}

TEST(SliceFlowDeath, OverrunIsFatal)
{
    auto cfg = sim::t3dConfig({2, 1, 1});
    sim::Machine m(cfg);
    CommOp op = pairExchange(m, P::contiguous(), P::contiguous(), 32);
    EXPECT_EXIT(sliceFlow(op.flows.at(0), 16, 32),
                testing::ExitedWithCode(1), "exceeds");
}

// --- style break-even ------------------------------------------------

/**
 * Independent re-derivation of the flip round: replay the EWMA and
 * the hysteresis-band query against the controller's own analytic
 * backend, with cooldown, exactly as the policy documents it. The
 * test then asserts the controller's actual flips match round for
 * round -- catching any wiring drift between the smoothed estimate,
 * the fault environment handed to the backend, and the band check.
 */
std::vector<int>
predictedFlips(const ResilienceController &fresh,
               const sim::MachineConfig &cfg, P x, P y,
               const ResilienceOptions &opts,
               const std::vector<double> &lossByRound)
{
    auto cur = core::buildProgram(cfg.id, opts.initialStyle, x, y);
    auto alt = core::buildProgram(cfg.id, opts.alternateStyle, x, y);
    std::vector<int> flips;
    double ewma = 0.0;
    bool have = false;
    int cooldown = 0;
    for (std::size_t r = 0; r < lossByRound.size(); ++r) {
        double sample = lossByRound[r];
        ewma = have ? opts.ewma * sample + (1.0 - opts.ewma) * ewma
                    : sample;
        have = true;
        if (cooldown > 0)
            --cooldown;
        core::FaultEnvironment env;
        env.packetLoss = ewma;
        env.congestion = 1.0;
        env.retransmitTimeout = opts.transport.retransmitTimeout;
        env.packetWords = layerChunkWords;
        auto rateCur = fresh.backend().faultedRate(*cur, env);
        auto rateAlt = fresh.backend().faultedRate(*alt, env);
        if (cooldown == 0 && rateCur && rateAlt &&
            *rateAlt > *rateCur * (1.0 + opts.hysteresis)) {
            flips.push_back(static_cast<int>(r));
            std::swap(cur, alt);
            cooldown = opts.cooldownRounds;
        }
    }
    return flips;
}

TEST(ResilienceController, FlipsExactlyWhenAnalyticBreakEvenPredicts)
{
    auto cfg = sim::t3dConfig({2, 1, 1});
    // Start on the analytically *worse* style so the break-even is
    // actually crossable; on the T3D the chained path dominates
    // buffer packing at every reachable loss rate.
    ResilienceOptions opts;
    opts.initialStyle = "buffer-packing";
    opts.alternateStyle = "chained";
    opts.adaptTransport = false;
    opts.adaptCheckpoint = false;

    // Seed-swept noisy loss streams: mean rises with the seed, noise
    // from a deterministic LCG. The predicted flip round must match
    // the controller's actual flip round for every stream.
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        std::vector<double> loss;
        std::uint64_t s = seed * 2654435761u;
        for (int r = 0; r < 12; ++r) {
            s = s * 6364136223846793005ull + 1442695040888963407ull;
            double noise =
                static_cast<double>((s >> 33) % 1000) / 10000.0;
            loss.push_back(
                std::min(0.9, 0.02 * static_cast<double>(seed) +
                                  noise));
        }

        ResilienceController ctl(cfg, P::strided(4), P::strided(4),
                                 opts);
        auto expect = predictedFlips(ctl, cfg, P::strided(4),
                                     P::strided(4), opts, loss);
        std::vector<int> actual;
        for (std::size_t r = 0; r < loss.size(); ++r) {
            // Synthesize integer counters that reproduce the sample:
            // retransmits / (data + retransmits) == loss[r].
            auto retrans = static_cast<std::uint64_t>(
                loss[r] * 100000.0 + 0.5);
            auto obs = lossRound(static_cast<int>(r),
                                 100000 - retrans, retrans);
            for (const PolicyDecision &d : ctl.observe(obs))
                if (d.action == PolicyAction::SwitchStyle)
                    actual.push_back(d.round);
        }
        EXPECT_EQ(actual, expect) << "seed " << seed;
        // The T3D surface never favors packing again: one flip, max.
        EXPECT_LE(ctl.styleSwitches(), 1) << "seed " << seed;
        if (!expect.empty()) {
            EXPECT_EQ(ctl.styleKey(), "chained") << "seed " << seed;
        }
    }
}

TEST(ResilienceController, AllUnroutableRoundHoldsTheStyle)
{
    // congestion 1.0 with zero routed demands is a dead fabric, not a
    // balanced one: the break-even comparison against that fictional
    // uncongested network must not flip the style.
    auto cfg = sim::t3dConfig({2, 1, 1});
    ResilienceOptions opts;
    opts.initialStyle = "buffer-packing";
    opts.alternateStyle = "chained";
    opts.adaptTransport = false;
    opts.adaptCheckpoint = false;

    // Control: the identical round with routable demands flips
    // (chained dominates buffer packing on the T3D).
    RoundObservation obs = lossRound(0, 100000, 0);
    obs.congestion = 1.0;
    obs.routedDemands = 4;
    obs.unroutableDemands = 0;
    ResilienceController routable(cfg, P::strided(4), P::strided(4),
                                  opts);
    bool flipped = false;
    for (const PolicyDecision &d : routable.observe(obs))
        flipped |= d.action == PolicyAction::SwitchStyle;
    ASSERT_TRUE(flipped);

    // Same round, but nothing routed: hold.
    obs.routedDemands = 0;
    obs.unroutableDemands = 4;
    ResilienceController dead(cfg, P::strided(4), P::strided(4),
                              opts);
    for (const PolicyDecision &d : dead.observe(obs))
        EXPECT_NE(d.action, PolicyAction::SwitchStyle);
    EXPECT_EQ(dead.styleKey(), "buffer-packing");
    EXPECT_EQ(dead.styleSwitches(), 0);
}

TEST(ResilienceController, NeverOscillatesOnStaticEnvironment)
{
    auto cfg = sim::t3dConfig({2, 1, 1});
    ResilienceOptions opts;
    opts.initialStyle = "buffer-packing";
    opts.alternateStyle = "chained";
    opts.adaptTransport = false;
    opts.adaptCheckpoint = false;
    ResilienceController ctl(cfg, P::strided(4), P::strided(4), opts);
    // Constant mid loss for many rounds: after the one profitable
    // flip, the reverse trade is outside the hysteresis band by
    // construction, so the style must hold.
    for (int r = 0; r < 32; ++r)
        ctl.observe(lossRound(r, 980, 20));
    EXPECT_EQ(ctl.styleSwitches(), 1);
    EXPECT_EQ(ctl.styleKey(), "chained");
}

TEST(ResilienceController, ChainedNeverFlipsToPackingUnderLoss)
{
    // The complementary prediction: starting from chained, the
    // analytic surface never crosses break-even at any reachable
    // loss, so the controller must hold chained through the sweep.
    auto cfg = sim::t3dConfig({2, 1, 1});
    ResilienceOptions opts;
    opts.adaptTransport = false;
    opts.adaptCheckpoint = false;
    ResilienceController ctl(cfg, P::strided(4), P::strided(4), opts);
    core::FaultEnvironment env;
    env.packetWords = layerChunkWords;
    env.retransmitTimeout = opts.transport.retransmitTimeout;
    auto be = ctl.backend().breakEvenLoss(
        ctl.currentProgram(),
        *core::buildProgram(cfg.id, "buffer-packing", P::strided(4),
                            P::strided(4)),
        env);
    // If this ever starts returning a reachable break-even, the
    // sweep below must be extended past it instead of weakened.
    ASSERT_TRUE(!be || *be > 0.4);
    for (int r = 0; r < 20; ++r)
        ctl.observe(lossRound(r, 1000 - 20 * r, 20 * r));
    EXPECT_EQ(ctl.styleSwitches(), 0);
    EXPECT_EQ(ctl.styleKey(), "chained");
}

// --- transport adaptation --------------------------------------------

TEST(ResilienceController, TightensBoundedlyUnderSustainedLoss)
{
    auto cfg = sim::t3dConfig({2, 1, 1});
    ResilienceOptions opts;
    opts.adaptStyle = false;
    opts.adaptCheckpoint = false;
    ResilienceController ctl(cfg, P::contiguous(), P::contiguous(),
                             opts);
    Cycles baseline = opts.transport.retransmitTimeout;
    for (int r = 0; r < 10; ++r)
        ctl.observe(lossRound(r, 900, 100));
    EXPECT_LT(ctl.transport().retransmitTimeout, baseline);
    EXPECT_GE(ctl.transport().retransmitTimeout,
              opts.minRetransmitTimeout);
    EXPECT_LE(ctl.transport().maxRetries, opts.maxRetries);
    EXPECT_GT(ctl.transport().maxRetries,
              opts.transport.maxRetries);
}

TEST(ResilienceController, RelaxesBackOnCleanChannel)
{
    auto cfg = sim::t3dConfig({2, 1, 1});
    ResilienceOptions opts;
    opts.adaptStyle = false;
    opts.adaptCheckpoint = false;
    ResilienceController ctl(cfg, P::contiguous(), P::contiguous(),
                             opts);
    for (int r = 0; r < 4; ++r)
        ctl.observe(lossRound(r, 900, 100));
    ASSERT_LT(ctl.transport().retransmitTimeout,
              opts.transport.retransmitTimeout);
    // Clean rounds walk both tunables back to the baseline, never
    // past it.
    for (int r = 4; r < 20; ++r)
        ctl.observe(lossRound(r, 1000, 0));
    EXPECT_EQ(ctl.transport().retransmitTimeout,
              opts.transport.retransmitTimeout);
    EXPECT_EQ(ctl.transport().maxRetries,
              opts.transport.maxRetries);
}

TEST(ResilienceController, SpuriousRetransmitsDoNotInflateLoss)
{
    auto cfg = sim::t3dConfig({2, 1, 1});
    ResilienceController ctl(cfg, P::contiguous(), P::contiguous());
    // Every retransmission echoed back as a receiver duplicate:
    // the loss estimate must read (near) zero while the raw
    // retransmit rate still reflects the timer churn.
    RoundObservation obs = lossRound(0, 900, 100);
    obs.duplicatesDropped = 100;
    ctl.observe(obs);
    EXPECT_DOUBLE_EQ(ctl.smoothedLoss(), 0.0);
    EXPECT_NEAR(ctl.smoothedRetransmitRate(), 0.1, 1e-9);
}

// --- forced checkpoints ----------------------------------------------

TEST(ResilienceController, ForcesCheckpointOnNodeLossSignal)
{
    auto cfg = sim::t3dConfig({2, 1, 1});
    ResilienceOptions opts;
    opts.adaptStyle = false;
    opts.adaptTransport = false;
    ResilienceController ctl(cfg, P::contiguous(), P::contiguous(),
                             opts);
    // Two clean rounds accumulate un-checkpointed words.
    ctl.observe(lossRound(0, 1000, 0));
    ctl.observe(lossRound(1, 1000, 0));
    // Then a dead-endpoint signal: repair volume (2 rounds) exceeds
    // one round's checkpoint cost, so the controller forces one.
    RoundObservation obs = lossRound(2, 1000, 0);
    obs.deadEndpointDrops = 4;
    auto decisions = ctl.observe(obs);
    ASSERT_EQ(decisions.size(), 1u);
    EXPECT_EQ(decisions[0].action, PolicyAction::ForceCheckpoint);
    // The accumulator reset: the same signal next round does not
    // immediately re-fire.
    RoundObservation again = lossRound(3, 1000, 0);
    again.deadEndpointDrops = 4;
    EXPECT_TRUE(ctl.observe(again).empty());
}

// --- decision-log fingerprint ----------------------------------------

TEST(ResilienceController, FingerprintIsReplayStable)
{
    auto cfg = sim::t3dConfig({2, 1, 1});
    auto run = [&cfg](std::uint64_t retrans) {
        ResilienceController ctl(cfg, P::contiguous(),
                                 P::contiguous());
        for (int r = 0; r < 6; ++r)
            ctl.observe(lossRound(r, 1000 - retrans, retrans));
        return ctl.fingerprint();
    };
    EXPECT_EQ(run(50), run(50));
    EXPECT_NE(run(50), run(200));
}

// --- end-to-end adaptive runs ----------------------------------------

TEST(AdaptiveExchange, DeliversBitExactUnderDrops)
{
    auto cfg = sim::t3dConfig({2, 1, 1});
    cfg.faults = sim::FaultSpec::parse("drop=0.05,seed=3");
    sim::Machine m(cfg);
    CommOp op = pairExchange(m, P::strided(4), P::strided(4), 2048);
    ResilienceController ctl(cfg, P::strided(4), P::strided(4));
    AdaptiveResult r = runAdaptiveExchange(m, op, ctl, 4);
    EXPECT_EQ(r.corruptWords, 0u);
    EXPECT_EQ(r.rounds, 4);
    EXPECT_EQ(r.skippedFlows, 0);
    EXPECT_GT(r.makespan, 0u);
}

TEST(AdaptiveExchange, ReplayIsBitIdentical)
{
    auto once = [] {
        auto cfg = sim::t3dConfig({2, 1, 1});
        cfg.faults = sim::FaultSpec::parse("drop=0.04,seed=9");
        cfg.chaos = sim::ChaosSchedule::parse(
            "ramp:drop:0:0.05:0:200000;seed:5");
        sim::Machine m(cfg);
        CommOp op =
            pairExchange(m, P::strided(4), P::strided(4), 2048);
        ResilienceController ctl(cfg, P::strided(4), P::strided(4));
        AdaptiveResult r = runAdaptiveExchange(m, op, ctl, 4);
        EXPECT_EQ(r.corruptWords, 0u);
        return std::make_pair(r.fingerprint, r.makespan);
    };
    auto a = once();
    auto b = once();
    EXPECT_EQ(a.first, b.first);
    EXPECT_EQ(a.second, b.second);
}

TEST(AdaptiveExchange, BeatsStaticChainedPastBreakEven)
{
    // Past the transport break-even (see bench_ext_adaptive for the
    // full sweep) the closed loop must beat the static chained layer:
    // tightened timeouts recover losses faster than the static
    // transport's full timeout stalls.
    const char *faults = "drop=0.1,seed=1";
    auto cfg = sim::t3dConfig({2, 1, 1});
    cfg.faults = sim::FaultSpec::parse(faults);
    sim::Machine ms(cfg);
    CommOp ops =
        pairExchange(ms, P::contiguous(), P::contiguous(), 8192);
    seedSources(ms, ops);
    auto layer = makeReliableChained();
    RunResult stat = layer->run(ms, ops);
    ASSERT_EQ(verifyDelivery(ms, ops), 0u);

    auto cfga = sim::t3dConfig({2, 1, 1});
    cfga.faults = sim::FaultSpec::parse(faults);
    sim::Machine ma(cfga);
    CommOp opa =
        pairExchange(ma, P::contiguous(), P::contiguous(), 8192);
    ResilienceController ctl(cfga, P::contiguous(), P::contiguous());
    AdaptiveResult adap = runAdaptiveExchange(ma, opa, ctl, 4);
    EXPECT_EQ(adap.corruptWords, 0u);
    EXPECT_LT(adap.makespan, stat.makespan);
    EXPECT_GT(adap.transportAdaptations, 0);
}

TEST(AdaptiveExchange, RoundsAfterEngineDeathRunPackingOnce)
{
    // Round 0 kills the deposit engine and degrades; the controller
    // then runs buffer packing, which a dead ADP datapath cannot
    // stop. Those rounds must not degrade (and run) a second time,
    // so splitting the exchange into rounds costs little.
    const P x = P::contiguous(), y = P::strided(2);
    auto makespan = [&](int rounds) {
        auto cfg = sim::t3dConfig({2, 1, 1});
        cfg.faults = sim::FaultSpec::parse("engine_fail=1,seed=1");
        sim::Machine m(cfg);
        CommOp op = pairExchange(m, x, y, 4096);
        ResilienceController ctl(cfg, x, y);
        AdaptiveResult r = runAdaptiveExchange(m, op, ctl, rounds);
        EXPECT_TRUE(r.degraded);
        EXPECT_EQ(r.corruptWords, 0u);
        return static_cast<double>(r.makespan);
    };
    double one = makespan(1);
    EXPECT_LT(makespan(4), 1.1 * one);
}

TEST(AdaptiveExchangeDeath, RejectsZeroRounds)
{
    auto cfg = sim::t3dConfig({2, 1, 1});
    sim::Machine m(cfg);
    CommOp op = pairExchange(m, P::contiguous(), P::contiguous(), 64);
    ResilienceController ctl(cfg, P::contiguous(), P::contiguous());
    EXPECT_EXIT(runAdaptiveExchange(m, op, ctl, 0),
                testing::ExitedWithCode(1), "rounds");
}

TEST(ResilienceControllerDeath, RejectsBadOptions)
{
    auto cfg = sim::t3dConfig({2, 1, 1});
    ResilienceOptions opts;
    opts.ewma = 0.0;
    EXPECT_EXIT(ResilienceController(cfg, P::contiguous(),
                                     P::contiguous(), opts),
                testing::ExitedWithCode(1), "ewma");
    ResilienceOptions bad;
    bad.minRetransmitTimeout = 0;
    EXPECT_EXIT(ResilienceController(cfg, P::contiguous(),
                                     P::contiguous(), bad),
                testing::ExitedWithCode(1), "RetransmitTimeout");
}

} // namespace
