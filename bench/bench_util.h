/**
 * @file
 * Shared helpers for the benchmark harness. Every bench binary
 * regenerates one table or figure of the paper: rows appear as
 * google-benchmark counters (sim_MBps for simulator measurements,
 * model_MBps for copy-transfer-model estimates, paper_MBps for the
 * value printed in the paper), so the "who wins and by how much"
 * comparison is visible directly in the benchmark report.
 *
 * Both directions run from the same TransferProgram IR: the style
 * registry builds the program, the analytic backend rates it, the
 * simulation backend lowers it onto a runtime layer and executes it.
 *
 * The simulator is deterministic, so benchmarks run one iteration.
 */

#ifndef CT_BENCH_BENCH_UTIL_H
#define CT_BENCH_BENCH_UTIL_H

#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "core/planner.h"
#include "rt/chained_layer.h"
#include "rt/packing_layer.h"
#include "rt/sim_backend.h"
#include "rt/workload.h"

namespace ct::bench {

using core::AccessPattern;
using core::MachineId;
using core::Style;

/**
 * Lower @p style's TransferProgram onto a runtime layer for executing
 * arbitrary CommOps on @p machine. The program is built for 1Q1; the
 * lowering shape (staging copies, software costs, engine use) does
 * not depend on the patterns.
 */
std::unique_ptr<rt::MessageLayer> makeStyleLayer(MachineId machine,
                                                 Style style);

/**
 * Short label used in bench row names: the style's registry key,
 * except the historical "packing" for buffer-packing.
 */
std::string benchLabel(Style style);

/**
 * Per-node throughput of a pairwise exchange xQy executed with the
 * given style's program on a small partition of the machine (every
 * node both sends and receives, as in the paper's measurements).
 * Verifies delivery and aborts on corruption.
 */
double exchangeMBps(MachineId machine, Style style, AccessPattern x,
                    AccessPattern y, std::uint64_t words = 1 << 14);

/**
 * Latency-extended model of xQy with @p style, the one
 * core::planForSize() ranks the style by; fatal when the machine
 * lacks the style.
 */
core::MessageCostModel modelCost(MachineId machine, core::Style style,
                                 AccessPattern x, AccessPattern y);

/** Copy-transfer model estimate: modelCost()'s asymptotic rate. */
double modelMBps(MachineId machine, core::Style style,
                 AccessPattern x, AccessPattern y);

/**
 * Attach a rate counter to the current benchmark row and record it
 * in the run's summary (see runBenchmarks). Every value recorded
 * this way is derived from the deterministic simulator or the
 * analytic model -- never from wall-clock time -- so the summary is
 * bit-stable across hosts and fit for committed baselines.
 */
void setCounter(benchmark::State &state, const char *name,
                double value);

/**
 * Record one summary counter directly. Thread-safe: sweep workers
 * record rows concurrently and the summary stays canonical because
 * rows are keyed (and dumped) sorted by row name, independent of
 * recording order. setCounter() funnels into the same store when the
 * report is captured.
 */
void recordSummaryRow(const std::string &row,
                      const std::string &counter, double value);

/**
 * One sweep cell: the registered benchmark row name (including any
 * "/arg" suffix the legacy ->Arg() registration would have produced)
 * and the closure computing its summary counters. The closure runs on
 * a farm worker, so it must build all simulator state privately and
 * return plain values (DESIGN.md §14).
 */
struct SweepCell
{
    std::string name;
    std::function<std::vector<std::pair<std::string, double>>()> run;
};

/**
 * Queue @p cells for the farmed sweep and register one benchmark row
 * per cell. runBenchmarks() fans the cells across a sweep::Farm
 * (worker count from BENCH_THREADS, default serial) BEFORE
 * google-benchmark runs; each registered row then republishes its
 * precomputed counters via setCounter(), so row names, console
 * report and summary are byte-identical to the legacy serial loops
 * for every thread count. @p unit sets the console time unit of the
 * registered rows (cosmetic only).
 */
void registerSweep(std::vector<SweepCell> cells,
                   std::optional<benchmark::TimeUnit> unit =
                       std::nullopt);

/**
 * Farm worker count from BENCH_THREADS ([1, 256]; absent or 1 = 0,
 * i.e. serial inline). Fatal on malformed values, mirroring ctplan's
 * --threads policy.
 */
int benchThreads();

/**
 * Standard bench main body: initialize google-benchmark, run the
 * registered benchmarks, then write the counters recorded via
 * setCounter() as a summary JSON
 *
 *   {"bench": "<benchName>", "rows": {"<row>": {"<counter>": v}}}
 *
 * to BENCH_summary.json (override the path with the BENCH_SUMMARY
 * environment variable; an empty value disables the dump).
 * tools/bench_compare.py diffs these summaries against the committed
 * baselines in bench/baselines/. Counters whose name starts with
 * "wall_" are host wall-clock derived and excluded from the summary
 * (archived in the --benchmark_out JSON only), so baselines stay
 * bit-stable across hosts.
 *
 * With @p defaultOut set, the run also writes google-benchmark's JSON
 * report to that file (CI archives it) unless the command line gives
 * its own --benchmark_out.
 */
int runBenchmarks(int argc, char **argv, const char *benchName,
                  const char *defaultOut = nullptr);

} // namespace ct::bench

#endif // CT_BENCH_BENCH_UTIL_H
