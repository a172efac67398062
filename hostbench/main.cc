/**
 * @file
 * Host-time benchmark program:
 *
 *   hostbench --workload kernels|storm|sweep --seed N --seconds S
 *             --trace 0|1 [--trace-out FILE]
 *
 * Runs one seeded workload, checks its outputs, prints the digest of
 * what it simulated and, as the last line, the JSON result. Exit 0
 * when every output was correct, 1 when one was not, 2 on bad
 * arguments.
 */

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cerrno>
#include <fstream>
#include <set>

#include "workloads.h"

namespace hostbench {

const std::vector<std::pair<std::string, std::string>> &
perLayerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> list = {
        {"core.plan_us", "us"},
        {"core.build_program_us", "us"},
        {"core.predict_us", "us"},
        {"sim.machine.build_ms", "ms"},
        {"sim.event.executed", "count"},
        {"sim.event.ns_per_event", "ns"},
        {"sim.event.peak_pending", "count"},
        {"sim.mem.dram_accesses", "count"},
        {"sim.mem.cache_accesses", "count"},
        {"sim.mem.bus_transactions", "count"},
        {"sim.net.packets", "count"},
        {"sim.net.wire_bytes", "B"},
        {"sim.measure.table_ms", "ms"},
        {"sim.pdes.speedup_4t", "x"},
        {"rt.run_ms.packing", "ms"},
        {"rt.run_ms.chained", "ms"},
        {"rt.run_ms.pvm", "ms"},
        {"rt.verify_ms", "ms"},
        {"apps.create_ms", "ms"},
        {"svc.parse_us", "us"},
        {"svc.handle_us.plan_hit", "us"},
        {"svc.handle_us.plan_miss", "us"},
        {"svc.handle_us.sim", "us"},
        {"svc.wait_ms", "ms"},
        {"svc.cache.hit_ratio", "ratio"},
        {"svc.cache.evictions", "count"},
        {"svc.queue.peak_depth", "count"},
        {"svc.rejected", "count"},
        {"svc.deadline.truncated", "count"},
        {"svc.deadline.analytic_fallbacks", "count"},
        {"sweep.farm.efficiency", "ratio"},
        {"sweep.farm.steals", "count"},
        {"sweep.cell_ms.xval", "ms"},
        {"sweep.cell_ms.copy", "ms"},
        {"sweep.cell_ms.faulted", "ms"},
        {"sweep.cell_ms.scale", "ms"},
        {"sweep.render_ms", "ms"},
        {"obs.trace_overhead", "x"},
        {"bench.gen_late_ms.p99", "ms"},
        {"bench.gen_late_ms.max", "ms"},
        {"core.self_ms", "ms"},
        {"sim.self_ms", "ms"},
        {"rt.self_ms", "ms"},
        {"apps.self_ms", "ms"},
        {"svc.self_ms", "ms"},
        {"sweep.self_ms", "ms"},
        {"bench.self_ms", "ms"},
    };
    return list;
}

/**
 * The result line's end-to-end metrics, BENCHMARK.json's names in its
 * order. "work_per_probe" is each workload's own rate per probe time
 * (probeSeconds()): simulated payload MB (kernels), requests answered
 * by the synchronous service path (storm), cells (sweep).
 */
std::vector<Metric>
endToEnd(const std::string &workload, const std::vector<Metric> &have)
{
    static const std::map<std::string, std::string> rate = {
        {"kernels", "payload_MB_per_probe"},
        {"storm", "sync_req_per_probe"},
        {"sweep", "cells_per_probe"},
    };
    const std::pair<std::string, const char *> names[] = {
        {"setup_s", "s"},
        {"work_per_probe", "work/probe"},
        {"peak_rss_mb", "MB"},
    };
    std::vector<Metric> out;
    for (const auto &[name, unit] : names) {
        const std::string &own =
            name == "work_per_probe" ? rate.at(workload) : name;
        Metric m{name, 0.0, unit, 0};
        for (const Metric &h : have)
            if (h.name == own)
                m = {name, h.value, unit, h.samples};
        out.push_back(m);
    }
    return out;
}

std::vector<Metric>
completePerLayer(const std::vector<Metric> &have)
{
    std::vector<Metric> out;
    for (const auto &[name, unit] : perLayerMetrics()) {
        Metric m{name, 0.0, unit, 0};
        for (const Metric &h : have)
            if (h.name == name)
                m = h;
        out.push_back(m);
    }
    return out;
}

bool
finishTrace(const Trace &trace, double traced_wall_s, double overhead,
            const std::string &chrome_path, std::vector<Metric> &out)
{
    bool ok = true;
    if (!chrome_path.empty()) {
        std::ofstream os(chrome_path);
        trace.writeChrome(os);
        if (!os) {
            std::fprintf(stderr, "hostbench: cannot write %s\n",
                         chrome_path.c_str());
            ok = false;
        }
    }

    std::vector<SpanRecord> spans = trace.spans();
    std::map<std::string, LayerTime> layers = selfTimeByLayer(spans);
    double self_ns = 0.0;
    std::printf("self time per layer (traced wall %.3f s, %zu spans):\n",
                traced_wall_s, spans.size());
    std::printf("  %-8s %8s %12s %12s\n", "layer", "spans", "self_ms",
                "total_ms");
    for (const auto &[layer, t] : layers) {
        std::printf("  %-8s %8" PRIu64 " %12.3f %12.3f\n", layer.c_str(),
                    t.spans, static_cast<double>(t.selfNs) / 1e6,
                    static_cast<double>(t.totalNs) / 1e6);
        self_ns += static_cast<double>(t.selfNs);
        out.push_back({layer + ".self_ms",
                       static_cast<double>(t.selfNs) / 1e6, "ms", t.spans});
    }

    // Self times add up to the root spans' length plus the time
    // concurrent children overlapped; the roots must cover the wall
    // measured around the traced pass.
    double overlap_ns = static_cast<double>(concurrentOverlap(spans));
    double expect_ns = traced_wall_s * 1e9 + overlap_ns;
    double gap = expect_ns > 0.0 ? (self_ns - expect_ns) / expect_ns : 1.0;
    std::printf("  self sum %.3f ms = wall %.3f ms + overlap %.3f ms "
                "(%+.2f%%); dropped %" PRIu64 "\n",
                self_ns / 1e6, traced_wall_s * 1e3, overlap_ns / 1e6,
                gap * 100.0, trace.dropped());
    if (trace.dropped() != 0) {
        std::fprintf(stderr, "hostbench: tracer dropped %" PRIu64 " spans\n",
                     trace.dropped());
        ok = false;
    }
    if (std::abs(gap) > 0.03) {
        std::fprintf(stderr,
                     "hostbench: self times miss the traced wall by "
                     "%.2f%%\n",
                     gap * 100.0);
        ok = false;
    }
    out.push_back({"obs.trace_overhead", overhead, "x", 1});
    return ok;
}

} // namespace hostbench

namespace {

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "hostbench: %s\n"
                 "usage: hostbench --workload kernels|storm|sweep "
                 "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n",
                 why);
    std::exit(2);
}

bool
parseUint(const char *text, std::uint64_t &out)
{
    if (!text || !*text)
        return false;
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text, &end, 10);
    if (errno != 0 || *end != '\0' || text[0] == '-')
        return false;
    out = v;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace hostbench;
    RunOptions options;
    std::string workload;
    std::set<std::string> seen;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        if (!seen.insert(flag).second)
            usage(("repeated " + flag).c_str());
        std::uint64_t n = 0;
        if (flag == "--workload")
            workload = value;
        else if (flag == "--seed" && parseUint(value, n))
            options.seed = n;
        else if (flag == "--seconds" && parseUint(value, n) && n >= 1 &&
                 n <= 3600)
            options.seconds = static_cast<double>(n);
        else if (flag == "--trace" && parseUint(value, n) && n <= 1)
            options.trace = n == 1;
        else if (flag == "--trace-out")
            options.traceOut = value;
        else
            usage(("bad flag or value: " + flag + " " + value).c_str());
    }
    for (const char *required : {"--workload", "--seed", "--seconds",
                                 "--trace"})
        if (!seen.count(required))
            usage((std::string("missing ") + required).c_str());

    Outcome outcome;
    if (workload == "kernels")
        outcome = runKernels(options);
    else if (workload == "storm")
        outcome = runStorm(options);
    else if (workload == "sweep")
        outcome = runSweep(options);
    else
        usage(("unknown workload '" + workload + "'").c_str());

    std::printf("digest %s seed=%" PRIu64 " %s\n", workload.c_str(),
                options.seed, outcome.digest.c_str());
    std::vector<Metric> lines = outcome.metrics;
    std::vector<Metric> result;
    if (options.trace) {
        lines = result = completePerLayer(outcome.metrics);
    } else {
        lines.push_back({"peak_rss_mb", peakRssMb(), "MB", 1});
        lines.push_back({"fail_frac",
                         outcome.attempted
                             ? static_cast<double>(outcome.failed) /
                                   static_cast<double>(outcome.attempted)
                             : 1.0,
                         "ratio", outcome.attempted});
        result = endToEnd(workload, lines);
    }
    printResult(outcome.correct, outcome.attempted, outcome.failed, lines,
                result);
    return outcome.correct ? 0 : 1;
}
