/**
 * @file
 * Extension bench (not a paper table): the conservative parallel
 * engine's determinism contract, run as a perf-gate row. Each row
 * executes the same pairwise exchange twice from identical machine
 * configurations -- once on the serial event loop, once on the
 * parallel engine at 8 workers -- fingerprints everything the run
 * committed (makespan, rates, delivery check, event totals, queue
 * peaks, the full metrics registry) and publishes identity_ok = 1
 * only when the two fingerprints are byte-identical. The engine's
 * own counters (windows formed, parallel windows, events run on
 * workers, committed cross-partition spawns) are schedule-
 * independent -- window shapes depend only on the event timeline,
 * never on thread interleaving -- so they are baselined too: a
 * change in window formation or commit behaviour shows up as a
 * baseline diff even when the results still match.
 *
 * Wall-clock speedup is published as a plain benchmark counter for
 * the archived artifact, NOT via the summary: it varies with the
 * host and must never gate.
 */

#include <chrono>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/style_registry.h"
#include "sim/parallel.h"
#include "sim/report.h"

namespace {

using namespace ct;
using namespace ct::bench;
using P = core::AccessPattern;

struct PdesRun
{
    std::string fingerprint;
    sim::ParallelStats engine;
    double makespan = 0.0;
    double wallSeconds = 0.0;
    bool corrupt = false;
};

/** One full exchange, lowered exactly like rt::SimBackend does, with
 *  every committed observable serialized into the fingerprint. */
PdesRun
runOnce(sim::MachineConfig cfg, int threads, core::Style style,
        std::uint64_t words)
{
    cfg.threads = threads;
    auto program =
        core::buildProgram(cfg.id, style, P::strided(4),
                           P::contiguous());

    PdesRun out;
    auto t0 = std::chrono::steady_clock::now();
    sim::Machine m(cfg);
    auto op = rt::pairExchange(m, P::strided(4), P::contiguous(),
                               words, 42);
    rt::seedSources(m, op);
    auto layer = rt::lowerProgram(*program);
    m.setParallelEnabled(layer->parallelSafe());
    m.setParallelLookahead(layer->parallelLookahead(m, op));
    auto result = layer->run(m, op);
    std::uint64_t bad = rt::verifyDelivery(m, op);
    sim::collectReport(m);
    out.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now()
                                      - t0)
            .count();

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
    out.fingerprint = os.str();
    out.makespan = static_cast<double>(result.makespan);
    out.corrupt = bad != 0;
    if (const sim::ParallelEngine *eng = m.parallelEngine())
        out.engine = eng->stats();
    return out;
}

struct PdesCase
{
    const char *name;
    core::MachineId machine;
    core::Style style;
};

sim::MachineConfig
configFor(core::MachineId machine)
{
    return machine == core::MachineId::T3d
               ? sim::t3dConfig({4, 2, 1})
               : sim::paragonConfig({4, 2});
}

void
pdesRow(benchmark::State &state, PdesCase c)
{
    auto words = static_cast<std::uint64_t>(state.range(0));
    PdesRun serial, parallel;
    for (auto _ : state) {
        serial = runOnce(configFor(c.machine), 1, c.style, words);
        parallel = runOnce(configFor(c.machine), 8, c.style, words);
        if (serial.corrupt || parallel.corrupt)
            state.SkipWithError("corrupted delivery");
    }
    double identical =
        serial.fingerprint == parallel.fingerprint ? 1.0 : 0.0;

    // Deterministic counters: baselined by the perf gate.
    setCounter(state, "identity_ok", identical);
    setCounter(state, "makespan", serial.makespan);
    setCounter(state, "windows",
               static_cast<double>(parallel.engine.windows));
    setCounter(state, "parallel_windows",
               static_cast<double>(parallel.engine.parallelWindows));
    setCounter(state, "parallel_events",
               static_cast<double>(parallel.engine.parallelEvents));
    setCounter(state, "cross_spawns",
               static_cast<double>(parallel.engine.crossSpawns));
    setCounter(state, "max_window_span",
               static_cast<double>(parallel.engine.maxWindowSpan));

    // Host-dependent: archived artifact only, never baselined.
    state.counters["wall_speedup"] =
        parallel.wallSeconds > 0.0
            ? serial.wallSeconds / parallel.wallSeconds
            : 0.0;
}

void
registerAll()
{
    const PdesCase cases[] = {
        {"t3d_chained", core::MachineId::T3d, core::Style::Chained},
        {"paragon_chained", core::MachineId::Paragon,
         core::Style::Chained},
        {"paragon_packing", core::MachineId::Paragon,
         core::Style::BufferPacking},
    };
    for (const PdesCase &c : cases) {
        std::string name =
            std::string("pdes_identity/") + c.name + "/words";
        auto *b = benchmark::RegisterBenchmark(
            name.c_str(),
            [c](benchmark::State &state) { pdesRow(state, c); });
        b->Iterations(1)->Unit(benchmark::kMillisecond);
        b->Arg(4096);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    registerAll();
    return ct::bench::runBenchmarks(argc, argv, "ext_pdes",
                                    "BENCH_pdes.json");
}
