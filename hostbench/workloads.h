/**
 * @file
 * The benchmark's workloads. Each one generates its inputs from the
 * seed, sets up (several times, reporting the median), warms up,
 * measures for the requested seconds with tracing off, checks every
 * output, prints the digest of what it simulated and the result
 * line. With tracing on it instead runs one untraced and one traced
 * pass of the same work and prints the per-layer metrics.
 */

#ifndef HOSTBENCH_WORKLOADS_H
#define HOSTBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"

namespace hostbench {

struct RunOptions
{
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Chrome trace JSON of the traced pass ("" = not written). */
    std::string traceOut;
};

/**
 * What a workload hands back to main(): untraced, its own end-to-end
 * metrics (main() maps them onto BENCHMARK.json's names); traced, the
 * per-layer metrics.
 */
struct Outcome
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::string digest;
    std::vector<Metric> metrics;
};

Outcome runKernels(const RunOptions &options);
Outcome runStorm(const RunOptions &options);
Outcome runSweep(const RunOptions &options);

/** Set-ups per run; setup_s is their median. */
inline constexpr int kSetups = 5;

/** Span ring capacity of a traced run. */
inline constexpr std::size_t kTraceCapacity = 1 << 18;

/**
 * Every per-layer metric, in the order BENCHMARK.json lists them. A
 * traced run reports all of them; a layer the workload does not call
 * reads 0 (no calls, no time).
 */
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();

/**
 * Close a traced run: export the spans as Chrome trace JSON, print
 * the self-time table per layer, and check that the tracer dropped
 * nothing and that self times add up to the traced wall (plus the
 * time farm cells ran side by side) within 3%. Adds the <layer>.self_ms
 * metrics and obs.trace_overhead (@p overhead: traced over untraced
 * wall of the same work) to @p out. False when a check fails.
 */
bool finishTrace(const Trace &trace, double traced_wall_s,
                 double overhead, const std::string &chrome_path,
                 std::vector<Metric> &out);

/**
 * Fill in every per-layer metric @p have lacks with 0 and order them
 * as perLayerMetrics() does.
 */
std::vector<Metric> completePerLayer(const std::vector<Metric> &have);

/** BENCHMARK.json's end-to-end metrics of @p workload, from @p have. */
std::vector<Metric> endToEnd(const std::string &workload,
                             const std::vector<Metric> &have);

} // namespace hostbench

#endif // HOSTBENCH_WORKLOADS_H
