/**
 * @file
 * Measurement harness of the host-time benchmark: order statistics,
 * span recording on top of obs::Tracer, per-layer self time, the
 * digest of simulated observables and the result printer.
 *
 * Spans. Every public call the benchmark makes into a module is
 * wrapped in a Span. A span names its layer (the module: "sim",
 * "rt", "core", ...), its call, and the span that caused it; all
 * spans of one kernel run, request or cell share one op id. Spans
 * go into an obs::Tracer ring as complete spans whose clock is
 * wall-clock nanoseconds since the Trace was made (exported as
 * microseconds): the track (tid) is the op id and the two integer
 * arguments are the span id and the parent span id, so the ring
 * exports straight to Chrome trace JSON. A null Trace turns every
 * Span into a stopwatch.
 */

#ifndef HOSTBENCH_HARNESS_H
#define HOSTBENCH_HARNESS_H

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/trace.h"

namespace hostbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p t0. */
double secondsSince(Clock::time_point t0);

// ---------------------------------------------------------------
// Order statistics.

/**
 * The @p p-th percentile (0..100) by linear interpolation between
 * the closest ranks (numpy's default). 0 for an empty sample.
 */
double percentile(std::vector<double> values, double p);

/** percentile(values, 50). */
double median(std::vector<double> values);

/**
 * First quartile, median and third quartile exactly as Python's
 * statistics.quantiles(values, n=4) computes them (the "exclusive"
 * method). Needs at least two values; one value gives it three
 * times.
 */
std::array<double, 3> quartiles(std::vector<double> values);

/** (q3 - q1) / median by quartiles(); 0 when the median is 0. */
double iqrShare(const std::vector<double> &values);

// ---------------------------------------------------------------
// Spans.

/** One recorded span, as read back from the tracer. */
struct SpanRecord
{
    std::string layer;
    std::string name;
    std::int32_t op = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0; ///< 0 = root
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;

    std::uint64_t durNs() const { return endNs - startNs; }
};

/** Thread-safe span sink around one obs::Tracer. */
class Trace
{
  public:
    /** @p capacity spans fit before the ring drops the oldest. */
    explicit Trace(std::size_t capacity);

    Trace(const Trace &) = delete;
    Trace &operator=(const Trace &) = delete;

    /** Nanoseconds from construction to @p t. */
    std::uint64_t nsAt(Clock::time_point t) const;

    /** A fresh span id (never 0). */
    std::uint64_t nextSpanId();

    /** A fresh op id: one per kernel run, request or cell. */
    std::int32_t nextOp();

    void record(const char *layer, const char *name, std::int32_t op,
                std::uint64_t id, std::uint64_t parent,
                std::uint64_t start_ns, std::uint64_t end_ns);

    /** Spans the ring overwrote. */
    std::uint64_t dropped() const;

    /** Every held span, oldest end first. */
    std::vector<SpanRecord> spans() const;

    /** Chrome trace_event JSON (timestamps in microseconds). */
    void writeChrome(std::ostream &os) const;

  private:
    Clock::time_point epoch;
    mutable std::mutex mu; ///< guards tracer and the id counters
    ct::obs::Tracer tracer;
    std::uint64_t lastSpan = 0;
    std::int32_t lastOp = 0;
};

/**
 * RAII span, and stopwatch when the trace is null. The parent and op
 * default to the innermost open span on the calling thread; a span
 * started on another thread than its cause (a farm cell) names them
 * explicitly.
 */
class Span
{
  public:
    static constexpr std::uint64_t kInherit = ~std::uint64_t{0};
    static constexpr std::int32_t kInheritOp = -1;

    Span(Trace *trace, const char *layer, const char *name,
         std::int32_t op = kInheritOp, std::uint64_t parent = kInherit);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Close the span (once) and return its length in seconds. */
    double stop();

    /** Rename an open span, for calls classified by their outcome. */
    void rename(const char *new_name) { name = new_name; }

    std::uint64_t id() const { return spanId; }
    std::int32_t op() const { return opId; }

  private:
    Trace *trace;
    const char *layer;
    const char *name;
    std::int32_t opId = 0;
    std::uint64_t spanId = 0;
    std::uint64_t parentId = 0;
    Clock::time_point start;
    double seconds = -1.0;
    std::uint64_t savedSpan = 0;
    std::int32_t savedOp = 0;
};

/** Self time (ns) of every span: its duration minus the part of
 *  that interval its children cover (their union, clipped to it). */
std::vector<std::uint64_t> selfTimes(const std::vector<SpanRecord> &spans);

/**
 * Time that children of one parent spend running at the same time
 * as each other: the sum of their durations minus their union,
 * summed over parents. Zero when every span runs on one thread; with
 * farm cells it is the work the extra threads did.
 */
std::uint64_t concurrentOverlap(const std::vector<SpanRecord> &spans);

/** Per-layer totals: spans, summed duration, summed self time. */
struct LayerTime
{
    std::uint64_t spans = 0;
    std::uint64_t totalNs = 0;
    std::uint64_t selfNs = 0;
};
std::map<std::string, LayerTime>
selfTimeByLayer(const std::vector<SpanRecord> &spans);

struct Metric;

/**
 * The median duration of the spans named @p layer / @p name as metric
 * @p metric in @p unit ("us" or "ms"), with the span count as its
 * sample count; 0 when there are none.
 */
Metric spanMedian(const std::vector<SpanRecord> &spans,
                  std::string_view layer, std::string_view name,
                  std::string metric, std::string unit);

// ---------------------------------------------------------------
// Digest of simulated observables.

/** FNV-1a 64 over the values fed in, in order. */
class Digest
{
  public:
    void add(std::string_view text);
    void add(std::uint64_t value);
    /** Doubles are hashed through their round-trip text. */
    void add(double value);

    std::uint64_t value() const { return hash; }
    std::string hex() const;

  private:
    void addByte(unsigned char b);
    std::uint64_t hash = 1469598103934665603ull;
};

// ---------------------------------------------------------------
// Results.

/** One printed metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    std::uint64_t samples = 0;
};

/**
 * Host-speed probe: the wall seconds @p threads threads take to run,
 * side by side, a fixed piece of work shaped like the simulator's
 * inner loop (hash-table updates, a binary heap, indirect calls). The
 * probe is benchmark code, the same on every commit, so a rate
 * multiplied by the median probe time of the same run ("work per
 * probe") cancels how fast a shared host's cores happen to run that
 * minute and keeps every change in the program's own speed. The
 * workloads probe one thread: a probe on all four vCPUs of a shared
 * host varied several times more than the workloads themselves.
 */
double probeSeconds(int threads);

/** Peak resident set of this process, in MB. */
double peakRssMb();

/**
 * Print each of @p lines as "metric <name> <value> <unit> n=<samples>",
 * then the one-line JSON result holding @p result.
 */
void printResult(bool correct, std::uint64_t attempted,
                 std::uint64_t failed, const std::vector<Metric> &lines,
                 const std::vector<Metric> &result);

} // namespace hostbench

#endif // HOSTBENCH_HARNESS_H
