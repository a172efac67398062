/**
 * @file
 * Cross-validation of the two TransferProgram backends: every
 * machine x style x legal pattern-pair cell is built once by the
 * style registry and executed by BOTH the analytic backend (the
 * copy-transfer model fed the simulator-measured basic-transfer
 * table) and the simulation backend (the lowered runtime layer on
 * the cycle-level machine). Each row reports the two rates and the
 * relative error; a cell outside the tolerance stated in DESIGN.md
 * (15%) sets model_within_tolerance to 0, which the CI gate checks.
 *
 * The same sweep is available as `ctplan validate`.
 */

#include "bench_util.h"

#include "rt/validation.h"

namespace {

using namespace ct;
using namespace ct::bench;

// Run the sweep once, up front: the rows then just report the cells,
// so one benchmark binary invocation simulates each cell exactly
// once. The 97-cell harness runs through the sweep farm
// (BENCH_THREADS workers); the report is byte-identical for every
// thread count.
const rt::ValidationReport &
report()
{
    static const rt::ValidationReport r = [] {
        rt::ValidationOptions options;
        options.threads = benchThreads();
        return rt::crossValidate(options);
    }();
    return r;
}

void
cellRow(benchmark::State &state, const rt::ValidationCell &cell)
{
    for (auto _ : state) {
    }
    setCounter(state, "model_MBps", cell.modelMBps);
    setCounter(state, "sim_MBps", cell.simMBps);
    setCounter(state, "error_pct", cell.errorPct);
    setCounter(state, "model_within_tolerance", cell.pass ? 1.0 : 0.0);
}

void
registerAll()
{
    for (const rt::ValidationCell &cell : report().cells) {
        std::string name = cell.machineName + "/" + cell.style + "/" +
                           cell.x + "Q" + cell.y;
        benchmark::RegisterBenchmark(
            name.c_str(),
            [&cell](benchmark::State &s) { cellRow(s, cell); })
            ->Iterations(1)
            ->Unit(benchmark::kMillisecond);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    registerAll();
    ct::bench::runBenchmarks(argc, argv, "model_vs_sim",
                             "BENCH_model_vs_sim.json");
    // The regression gate: fail the binary (and CI) if any cell
    // drifted outside the tolerance.
    return report().allPass ? 0 : 1;
}
