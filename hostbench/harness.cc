#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <thread>
#include <unordered_map>

namespace hostbench {

namespace {

/** Where the probe's results go, so the compiler keeps its work. */
std::atomic<std::uint64_t> probeSink{0};

/** Innermost open span and its op on this thread. */
thread_local std::uint64_t currentSpan = 0;
thread_local std::int32_t currentOp = 0;

/** Union length of [begin, end) intervals clipped to [lo, hi). */
std::uint64_t
unionLength(std::vector<std::pair<std::uint64_t, std::uint64_t>> iv,
            std::uint64_t lo, std::uint64_t hi)
{
    std::sort(iv.begin(), iv.end());
    std::uint64_t covered = 0;
    std::uint64_t reach = lo;
    for (auto [b, e] : iv) {
        b = std::max(b, reach);
        e = std::min(e, hi);
        if (e > b) {
            covered += e - b;
            reach = e;
        }
    }
    return covered;
}

/** Children of every span, by index. */
std::unordered_map<std::uint64_t, std::vector<std::size_t>>
childrenOf(const std::vector<SpanRecord> &spans)
{
    std::unordered_map<std::uint64_t, std::vector<std::size_t>> out;
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].parent != 0)
            out[spans[i].parent].push_back(i);
    return out;
}

void
printNumber(double v)
{
    std::printf("%.17g", std::isfinite(v) ? v : 0.0);
}

} // namespace

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double pos = std::clamp(p, 0.0, 100.0) / 100.0 *
                 static_cast<double>(values.size() - 1);
    auto lo = static_cast<std::size_t>(std::floor(pos));
    if (lo + 1 >= values.size())
        return values.back();
    double frac = pos - static_cast<double>(lo);
    return values[lo] + frac * (values[lo + 1] - values[lo]);
}

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 50.0);
}

std::array<double, 3>
quartiles(std::vector<double> values)
{
    if (values.empty())
        return {0.0, 0.0, 0.0};
    if (values.size() == 1)
        return {values[0], values[0], values[0]};
    std::sort(values.begin(), values.end());
    const long n = 4;
    const long ld = static_cast<long>(values.size());
    const long m = ld + 1;
    std::array<double, 3> out{};
    for (long i = 1; i < n; ++i) {
        long j = std::clamp(i * m / n, 1L, ld - 1);
        long delta = i * m - j * n;
        out[i - 1] = (values[j - 1] * static_cast<double>(n - delta) +
                      values[j] * static_cast<double>(delta)) /
                     static_cast<double>(n);
    }
    return out;
}

double
iqrShare(const std::vector<double> &values)
{
    auto q = quartiles(values);
    return q[1] == 0.0 ? 0.0 : (q[2] - q[0]) / q[1];
}

Trace::Trace(std::size_t capacity)
    : epoch(Clock::now()), tracer(capacity)
{}

std::uint64_t
Trace::nsAt(Clock::time_point t) const
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch)
            .count());
}

std::uint64_t
Trace::nextSpanId()
{
    std::lock_guard<std::mutex> lock(mu);
    return ++lastSpan;
}

std::int32_t
Trace::nextOp()
{
    std::lock_guard<std::mutex> lock(mu);
    return ++lastOp;
}

void
Trace::record(const char *layer, const char *name, std::int32_t op,
              std::uint64_t id, std::uint64_t parent,
              std::uint64_t start_ns, std::uint64_t end_ns)
{
    std::lock_guard<std::mutex> lock(mu);
    tracer.span(layer, name, op, start_ns, end_ns - start_ns, "span", id,
                "parent", parent);
}

std::uint64_t
Trace::dropped() const
{
    std::lock_guard<std::mutex> lock(mu);
    return tracer.dropped();
}

std::vector<SpanRecord>
Trace::spans() const
{
    std::lock_guard<std::mutex> lock(mu);
    std::vector<SpanRecord> out;
    out.reserve(tracer.size());
    for (std::size_t i = 0; i < tracer.size(); ++i) {
        const ct::obs::TraceEvent &e = tracer.event(i);
        out.push_back({e.cat, e.name, e.tid, e.val1, e.val2, e.ts,
                       e.ts + e.dur});
    }
    return out;
}

void
Trace::writeChrome(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mu);
    tracer.writeChrome(os, 1000.0); // ns clock -> trace microseconds
}

Span::Span(Trace *trace, const char *layer, const char *name,
           std::int32_t op, std::uint64_t parent)
    : trace(trace), layer(layer), name(name), start(Clock::now())
{
    if (!trace)
        return;
    spanId = trace->nextSpanId();
    parentId = parent == kInherit ? currentSpan : parent;
    opId = op == kInheritOp ? currentOp : op;
    savedSpan = currentSpan;
    savedOp = currentOp;
    currentSpan = spanId;
    currentOp = opId;
}

Span::~Span()
{
    stop();
}

double
Span::stop()
{
    if (seconds >= 0.0)
        return seconds;
    Clock::time_point end = Clock::now();
    seconds = std::chrono::duration<double>(end - start).count();
    if (trace) {
        trace->record(layer, name, opId, spanId, parentId,
                      trace->nsAt(start), trace->nsAt(end));
        currentSpan = savedSpan;
        currentOp = savedOp;
    }
    return seconds;
}

std::vector<std::uint64_t>
selfTimes(const std::vector<SpanRecord> &spans)
{
    auto children = childrenOf(spans);
    std::vector<std::uint64_t> out(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const SpanRecord &s = spans[i];
        std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
        if (auto it = children.find(s.id); it != children.end())
            for (std::size_t c : it->second)
                iv.emplace_back(spans[c].startNs, spans[c].endNs);
        out[i] = s.durNs() - unionLength(std::move(iv), s.startNs,
                                         s.endNs);
    }
    return out;
}

std::uint64_t
concurrentOverlap(const std::vector<SpanRecord> &spans)
{
    std::unordered_map<std::uint64_t, std::size_t> index;
    for (std::size_t i = 0; i < spans.size(); ++i)
        index.emplace(spans[i].id, i);
    std::uint64_t overlap = 0;
    for (const auto &[parent, kids] : childrenOf(spans)) {
        auto p = index.find(parent);
        if (p == index.end())
            continue;
        const SpanRecord &ps = spans[p->second];
        std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
        std::uint64_t sum = 0;
        for (std::size_t c : kids) {
            std::uint64_t b = std::max(spans[c].startNs, ps.startNs);
            std::uint64_t e = std::min(spans[c].endNs, ps.endNs);
            if (e > b)
                sum += e - b;
            iv.emplace_back(spans[c].startNs, spans[c].endNs);
        }
        overlap += sum - unionLength(std::move(iv), ps.startNs, ps.endNs);
    }
    return overlap;
}

std::map<std::string, LayerTime>
selfTimeByLayer(const std::vector<SpanRecord> &spans)
{
    std::vector<std::uint64_t> self = selfTimes(spans);
    std::map<std::string, LayerTime> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        LayerTime &t = out[spans[i].layer];
        ++t.spans;
        t.totalNs += spans[i].durNs();
        t.selfNs += self[i];
    }
    return out;
}

Metric
spanMedian(const std::vector<SpanRecord> &spans, std::string_view layer,
           std::string_view name, std::string metric, std::string unit)
{
    const double ns_per_unit = unit == "us" ? 1e3 : 1e6;
    std::vector<double> d;
    for (const SpanRecord &s : spans)
        if (s.layer == layer && s.name == name)
            d.push_back(static_cast<double>(s.durNs()) / ns_per_unit);
    return {std::move(metric), median(d), std::move(unit), d.size()};
}

void
Digest::addByte(unsigned char b)
{
    hash ^= b;
    hash *= 1099511628211ull;
}

void
Digest::add(std::string_view text)
{
    for (char c : text)
        addByte(static_cast<unsigned char>(c));
    addByte(0); // separator: "ab","c" != "a","bc"
}

void
Digest::add(std::uint64_t value)
{
    for (int i = 0; i < 8; ++i)
        addByte(static_cast<unsigned char>(value >> (8 * i)));
}

void
Digest::add(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    add(std::string_view(buf));
}

std::string
Digest::hex() const
{
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(hash));
    return buf;
}

double
probeSeconds(int threads)
{
    // Each thread owns its buffers before the clock starts, so the
    // timed loop neither allocates nor depends on the heap's state.
    constexpr std::size_t kTable = 1 << 16; // 512 KiB of hash slots
    constexpr std::size_t kHeap = 4096;
    constexpr std::uint64_t kSteps = 80000;
    using Mix = std::uint64_t (*)(std::uint64_t);
    static constexpr Mix kMixes[2] = {
        [](std::uint64_t v) -> std::uint64_t {
            return (v * 0x9e3779b97f4a7c15ull) >> 7;
        },
        [](std::uint64_t v) -> std::uint64_t { return v ^ (v >> 29); }};

    std::atomic<bool> go{false};
    std::atomic<int> ready{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t)
        pool.emplace_back([&, t] {
            std::vector<std::uint64_t> table(kTable);
            std::vector<std::uint64_t> heap;
            heap.reserve(kHeap + 1);
            std::uint64_t x = static_cast<std::uint64_t>(t) + 1, acc = 0;
            ready.fetch_add(1);
            while (!go.load())
                std::this_thread::yield();
            for (std::uint64_t i = 0; i < kSteps; ++i) {
                x = x * 6364136223846793005ull + 1442695040888963407ull;
                // Keys 1..2^15 keep the table at most half full.
                std::uint64_t key = (x >> 49) + 1;
                std::size_t slot = (key * 0x9e3779b97f4a7c15ull >> 32) &
                                   (kTable - 1);
                while (table[slot] != 0 && table[slot] != key)
                    slot = (slot + 1) & (kTable - 1);
                table[slot] = key;
                heap.push_back(x);
                std::push_heap(heap.begin(), heap.end());
                if (heap.size() > kHeap) {
                    std::pop_heap(heap.begin(), heap.end());
                    acc += heap.back();
                    heap.pop_back();
                }
                acc += kMixes[x & 1](x);
            }
            probeSink.fetch_xor(acc, std::memory_order_relaxed);
        });
    while (ready.load() < threads)
        std::this_thread::yield();
    Clock::time_point t0 = Clock::now();
    go.store(true);
    for (std::thread &t : pool)
        t.join();
    return secondsSince(t0);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &lines,
            const std::vector<Metric> &metrics)
{
    for (const Metric &m : lines) {
        std::printf("metric %-28s ", m.name.c_str());
        printNumber(m.value);
        std::printf(" %s n=%llu\n", m.unit.c_str(),
                    static_cast<unsigned long long>(m.samples));
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::printf("%s\"%s\": {\"value\": ", i ? ", " : "",
                    metrics[i].name.c_str());
        printNumber(metrics[i].value);
        std::printf(", \"unit\": \"%s\"}", metrics[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
}

} // namespace hostbench
