/**
 * @file
 * Extension bench (not a paper table): closed-loop adaptation versus
 * a static reliable chained layer as the wire degrades. Each drop
 * row runs the same pair-exchange twice from identical machine
 * configurations -- once under the static transport, once in
 * round-sliced adaptive mode (rt::runAdaptiveExchange) -- and
 * reports both makespans. Past the retune break-even the adaptive
 * run must win: the controller halves the retransmit timeout (RTT-
 * floored) so round-tail timeout stalls stop dominating; below it
 * the controller holds and pays only the round-slicing premium.
 *
 * A chaos row replays a seed-derived fault campaign twice and
 * publishes the controller fingerprint halves; any nondeterminism in
 * the decision loop shows up as a baseline diff, so the perf gate
 * doubles as a replay bit-identity gate.
 */

#include "bench_util.h"
#include "rt/collectives.h"
#include "rt/reliable_layer.h"
#include "rt/resilience.h"
#include "rt/workload.h"
#include "sim/chaos.h"

namespace {

using namespace ct;
using namespace ct::bench;
using P = core::AccessPattern;

sim::MachineConfig
faultedConfig(double drop)
{
    auto cfg = sim::t3dConfig({2, 1, 1});
    if (drop > 0.0)
        cfg.faults = sim::FaultSpec::parse(
            "drop=" + std::to_string(drop) + ",seed=1");
    return cfg;
}

rt::AdaptiveResult
runAdaptive(const sim::MachineConfig &cfg, std::uint64_t words,
            int rounds)
{
    sim::Machine m(cfg);
    auto op =
        rt::pairExchange(m, P::contiguous(), P::contiguous(), words);
    rt::ResilienceController controller(
        cfg, P::contiguous(), P::contiguous());
    return rt::runAdaptiveExchange(m, op, controller, rounds);
}

void
adaptiveRow(benchmark::State &state)
{
    // drop rate in 1/10000ths so the integer Args stay readable.
    double drop = static_cast<double>(state.range(0)) / 10000.0;
    auto words = static_cast<std::uint64_t>(state.range(1));

    double static_makespan = 0.0;
    double adaptive_makespan = 0.0;
    double switches = 0.0;
    double retunes = 0.0;
    double adaptive_wins = 0.0;
    for (auto _ : state) {
        auto cfg = faultedConfig(drop);

        sim::Machine ms(cfg);
        auto op = rt::pairExchange(ms, P::contiguous(),
                                   P::contiguous(), words);
        rt::seedSources(ms, op);
        auto layer = rt::makeReliableChained();
        auto r = layer->run(ms, op);
        if (rt::verifyDelivery(ms, op) != 0)
            state.SkipWithError("static run corrupted delivery");

        auto ar = runAdaptive(cfg, words, 4);
        if (ar.corruptWords != 0)
            state.SkipWithError("adaptive run corrupted delivery");

        static_makespan = static_cast<double>(r.makespan);
        adaptive_makespan = static_cast<double>(ar.makespan);
        switches = static_cast<double>(ar.styleSwitches);
        retunes = static_cast<double>(ar.transportAdaptations);
        adaptive_wins = ar.makespan < r.makespan ? 1.0 : 0.0;
    }
    setCounter(state, "static_makespan", static_makespan);
    setCounter(state, "adaptive_makespan", adaptive_makespan);
    setCounter(state, "style_switches", switches);
    setCounter(state, "transport_retunes", retunes);
    setCounter(state, "adaptive_wins", adaptive_wins);
}

void
chaosReplayRow(benchmark::State &state)
{
    auto words = static_cast<std::uint64_t>(state.range(0));
    double makespan = 0.0;
    double fp_lo = 0.0;
    double fp_hi = 0.0;
    double replay_identical = 0.0;
    for (auto _ : state) {
        auto cfg = faultedConfig(0.02);
        cfg.chaos = sim::ChaosSchedule::parse(
            "seed:7;ramp:drop:0:0.08:0:400000;"
            "step:corrupt:0.01:100000");

        auto a = runAdaptive(cfg, words, 4);
        auto b = runAdaptive(cfg, words, 4);
        if (a.corruptWords != 0 || b.corruptWords != 0)
            state.SkipWithError("chaos run corrupted delivery");

        makespan = static_cast<double>(a.makespan);
        fp_lo = static_cast<double>(a.fingerprint & 0xffffffffu);
        fp_hi = static_cast<double>(a.fingerprint >> 32);
        replay_identical = (a.fingerprint == b.fingerprint &&
                            a.makespan == b.makespan)
                               ? 1.0
                               : 0.0;
    }
    setCounter(state, "makespan", makespan);
    setCounter(state, "fingerprint_lo32", fp_lo);
    setCounter(state, "fingerprint_hi32", fp_hi);
    setCounter(state, "replay_identical", replay_identical);
}

void
registerAll()
{
    auto *b = benchmark::RegisterBenchmark(
        "adaptive_vs_static/drop_x10000/words", adaptiveRow);
    b->Iterations(1)->Unit(benchmark::kMillisecond);
    // 0, 0.1%, 1%, 5%, 10% packet loss.
    for (std::int64_t drop : {0, 10, 100, 500, 1000})
        b->Args({drop, 8192});

    auto *c = benchmark::RegisterBenchmark(
        "adaptive_chaos_replay/words", chaosReplayRow);
    c->Iterations(1)->Unit(benchmark::kMillisecond);
    c->Arg(4096);
}

} // namespace

int
main(int argc, char **argv)
{
    registerAll();
    return ct::bench::runBenchmarks(argc, argv, "ext_adaptive",
                                    "BENCH_adaptive.json");
}
