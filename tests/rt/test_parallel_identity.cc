/**
 * @file
 * The determinism contract of the conservative parallel engine: a
 * run at any thread count commits byte-for-byte the same results as
 * the serial event loop. Every test here fingerprints a full run --
 * makespan, rates, delivery check, event totals, queue peaks and the
 * entire metrics registry serialized to JSON -- and requires the
 * threads=8 fingerprint to equal the threads=1 one exactly, across
 * machines, styles and seeds.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/style_registry.h"
#include "rt/chained_layer.h"
#include "rt/sim_backend.h"
#include "rt/workload.h"
#include "sim/report.h"

namespace {

using namespace ct;
using P = core::AccessPattern;

struct RunFingerprint
{
    std::string text;
    bool engineUsed = false;
    std::uint64_t parallelEvents = 0;
};

/**
 * Run one pairwise exchange exactly like SimBackend::exchange does
 * (same lowering, same parallel wiring) and serialize everything the
 * run committed into one comparable string.
 */
RunFingerprint
fingerprint(sim::MachineConfig cfg, int threads, core::Style style,
            P x, P y, std::uint64_t words, std::uint64_t seed)
{
    cfg.threads = threads;
    auto program = core::buildProgram(cfg.id, style, x, y);
    EXPECT_TRUE(program.has_value());

    sim::Machine m(cfg);
    auto op = rt::pairExchange(m, x, y, words, seed);
    rt::seedSources(m, op);
    auto layer = rt::lowerProgram(*program);
    m.setParallelEnabled(layer->parallelSafe());
    m.setParallelLookahead(layer->parallelLookahead(m, op));
    auto result = layer->run(m, op);
    std::uint64_t bad = rt::verifyDelivery(m, op);
    sim::collectReport(m);

    std::ostringstream os;
    os << "layer " << layer->name() << '\n'
       << "makespan " << result.makespan << '\n'
       << "perNodeMBps " << result.perNodeMBps(m) << '\n'
       << "totalMBps " << result.totalMBps(m) << '\n'
       << "corrupt " << bad << '\n'
       << "events " << m.events().eventsExecuted() << '\n'
       << "peakPending " << m.events().peakPending() << '\n'
       << "wireBytes " << m.network().stats().wireBytes << '\n';
    m.metrics().writeJson(os);

    RunFingerprint fp;
    fp.text = os.str();
    const sim::ParallelEngine *eng = m.parallelEngine();
    fp.engineUsed = eng != nullptr && m.events().now() > 0;
    if (eng)
        fp.parallelEvents = eng->stats().parallelEvents;
    return fp;
}

struct IdentityCase
{
    const char *name;
    core::MachineId machine;
    core::Style style;
    std::uint64_t words;
};

void
PrintTo(const IdentityCase &c, std::ostream *os)
{
    *os << c.name;
}

class ParallelIdentity : public testing::TestWithParam<IdentityCase>
{};

/** threads=8 must reproduce threads=1 byte-for-byte, three seeds. */
TEST_P(ParallelIdentity, EightThreadsMatchSerial)
{
    const IdentityCase &c = GetParam();
    auto cfg = c.machine == core::MachineId::T3d
                   ? sim::t3dConfig({4, 2, 1})
                   : sim::paragonConfig({4, 2});
    for (std::uint64_t seed : {1ull, 7ull, 1995ull}) {
        RunFingerprint serial =
            fingerprint(cfg, 1, c.style, P::strided(4),
                        P::contiguous(), c.words, seed);
        RunFingerprint parallel =
            fingerprint(cfg, 8, c.style, P::strided(4),
                        P::contiguous(), c.words, seed);
        EXPECT_EQ(serial.text, parallel.text)
            << c.name << " seed " << seed;
        EXPECT_FALSE(serial.engineUsed);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Styles, ParallelIdentity,
    testing::Values(
        IdentityCase{"t3d_chained", core::MachineId::T3d,
                     core::Style::Chained, 600},
        IdentityCase{"t3d_packing", core::MachineId::T3d,
                     core::Style::BufferPacking, 600},
        IdentityCase{"paragon_chained", core::MachineId::Paragon,
                     core::Style::Chained, 600},
        IdentityCase{"paragon_packing", core::MachineId::Paragon,
                     core::Style::BufferPacking, 600},
        IdentityCase{"paragon_pvm", core::MachineId::Paragon,
                     core::Style::Pvm, 400}),
    [](const testing::TestParamInfo<IdentityCase> &info) {
        return info.param.name;
    });

/** The parallel engine must actually engage on clean chained runs,
 *  not silently fall back to serial for the whole run. */
TEST(ParallelIdentity, EngineEngagesOnChained)
{
    RunFingerprint fp =
        fingerprint(sim::t3dConfig({4, 2, 1}), 8,
                    core::Style::Chained, P::contiguous(),
                    P::contiguous(), 2000, 42);
    ASSERT_TRUE(fp.engineUsed);
    EXPECT_GT(fp.parallelEvents, 0u);
}

/** Reliable transports are not parallel-safe; the machine must run
 *  them serially even at threads=8 -- and still match threads=1. */
TEST(ParallelIdentity, ReliableFallsBackToSerial)
{
    auto cfg = sim::t3dConfig({2, 2, 1});
    auto program = core::buildProgram(
        core::MachineId::T3d, core::Style::Chained, P::contiguous(),
        P::contiguous());
    ASSERT_TRUE(program.has_value());
    core::TransferProgram reliable =
        core::withReliability(*program);

    auto run = [&](int threads) {
        auto c = cfg;
        c.threads = threads;
        sim::Machine m(c);
        auto op = rt::pairExchange(m, program->x, program->y, 400, 3);
        rt::seedSources(m, op);
        auto layer = rt::lowerProgram(reliable);
        m.setParallelEnabled(layer->parallelSafe());
        m.setParallelLookahead(layer->parallelLookahead(m, op));
        auto result = layer->run(m, op);
        if (threads > 1) {
            const sim::ParallelEngine *eng = m.parallelEngine();
            EXPECT_NE(eng, nullptr);
            if (eng) {
                EXPECT_EQ(eng->stats().parallelEvents, 0u);
            }
        }
        return std::to_string(result.makespan) + "/" +
               std::to_string(m.events().eventsExecuted());
    };
    EXPECT_EQ(run(1), run(8));
}

/** Faulted and chaos machines never construct the engine: fault
 *  rolls draw from a shared RNG in event order. Identity still must
 *  hold (trivially, both serial). */
TEST(ParallelIdentity, FaultedMachineStaysSerial)
{
    auto cfg = sim::paragonConfig({2, 2});
    cfg.faults.drop = 0.01;
    cfg.faults.seed = 99;
    for (std::uint64_t seed : {5ull, 11ull, 23ull}) {
        auto run = [&](int threads) {
            auto c = cfg;
            c.threads = threads;
            rt::SimBackend backend(c);
            auto program = core::buildProgram(
                core::MachineId::Paragon, core::Style::Chained,
                P::contiguous(), P::contiguous());
            rt::SimRun r = backend.exchange(
                core::withReliability(*program), 300, seed);
            std::ostringstream os;
            os << r.result.makespan << ' ' << r.perNodeMBps << ' '
               << r.totalMBps << ' ' << r.corruptWords << ' '
               << r.eventsExecuted;
            return os.str();
        };
        EXPECT_EQ(run(1), run(8)) << "seed " << seed;
    }

    sim::MachineConfig faulted = cfg;
    faulted.threads = 8;
    sim::Machine m(faulted);
    EXPECT_EQ(m.parallelEngine(), nullptr);
}

/** threads=0 and threads=1 must not even construct the engine:
 *  the serial path carries zero parallel overhead. */
TEST(ParallelIdentity, SerialThreadCountsSkipEngine)
{
    for (int threads : {0, 1}) {
        auto cfg = sim::t3dConfig({2, 1, 1});
        cfg.threads = threads;
        sim::Machine m(cfg);
        EXPECT_EQ(m.parallelEngine(), nullptr) << threads;
    }
}

/** SimBackend::setThreads plumbs straight through to the machine
 *  and produces identical runs at 1 and 8 threads. */
TEST(ParallelIdentity, SimBackendThreadKnob)
{
    auto program = core::buildProgram(
        core::MachineId::T3d, core::Style::Chained, P::strided(8),
        P::strided(8));
    ASSERT_TRUE(program.has_value());
    auto run = [&](int threads) {
        rt::SimBackend backend(sim::t3dConfig({4, 1, 1}));
        backend.setThreads(threads);
        EXPECT_EQ(backend.threads(), threads);
        rt::SimRun r = backend.exchange(*program, 500, 13);
        std::ostringstream os;
        os << r.result.makespan << ' ' << r.perNodeMBps << ' '
           << r.corruptWords << ' ' << r.eventsExecuted;
        return os.str();
    };
    EXPECT_EQ(run(1), run(8));
}

} // namespace
