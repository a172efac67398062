/**
 * @file
 * Central metrics registry: named counters and gauges with cheap
 * handles. Components register their metrics once (the
 * registry get-or-creates by name, so a re-run reuses the same cell)
 * and bump them through handles on the hot path; reports, the
 * `--metrics-out` dump and the bench summary all read the same cells,
 * so there is exactly one source of truth per number.
 *
 * Handles are thread-safe by construction: every cell is an atomic
 * updated with relaxed ordering, and registration is serialized by a
 * mutex. Cells live in a deque, so handles stay valid for the
 * registry's lifetime regardless of later registrations. A
 * default-constructed handle is a null sink: updates are dropped,
 * which lets components run without a registry attached.
 *
 * Naming convention: dotted lowercase paths grouped by subsystem,
 * e.g. "sim.net.packets", "sim.fault.drops", "rt.reliable.retransmits".
 */

#ifndef CT_OBS_METRICS_H
#define CT_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace ct::obs {

/** What a registered name refers to. */
enum class MetricKind { Counter, Gauge };

/** Monotonic counter handle. */
class Counter
{
  public:
    Counter() = default;

    void add(std::uint64_t n)
    {
        if (cell)
            cell->fetch_add(n, std::memory_order_relaxed);
    }
    void inc() { add(1); }

    std::uint64_t value() const
    {
        return cell ? cell->load(std::memory_order_relaxed) : 0;
    }

    /** Zero this counter (run-scoped metrics reset between runs). */
    void reset()
    {
        if (cell)
            cell->store(0, std::memory_order_relaxed);
    }

    explicit operator bool() const { return cell != nullptr; }

  private:
    friend class MetricsRegistry;
    explicit Counter(std::atomic<std::uint64_t> *cell) : cell(cell) {}
    std::atomic<std::uint64_t> *cell = nullptr;
};

/** Last-value gauge handle (signed). */
class Gauge
{
  public:
    Gauge() = default;

    void set(std::int64_t v)
    {
        if (cell)
            cell->store(v, std::memory_order_relaxed);
    }
    void add(std::int64_t v)
    {
        if (cell)
            cell->fetch_add(v, std::memory_order_relaxed);
    }

    std::int64_t value() const
    {
        return cell ? cell->load(std::memory_order_relaxed) : 0;
    }

    void reset() { set(0); }

    explicit operator bool() const { return cell != nullptr; }

  private:
    friend class MetricsRegistry;
    explicit Gauge(std::atomic<std::int64_t> *cell) : cell(cell) {}
    std::atomic<std::int64_t> *cell = nullptr;
};

/**
 * The registry. counter()/gauge() get-or-create by name;
 * registering an existing name with a different kind is a fatal
 * configuration error (names are unique across kinds).
 */
class MetricsRegistry
{
  public:
    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    Counter counter(const std::string &name);
    Gauge gauge(const std::string &name);

    /** True if @p name is registered (any kind). */
    bool has(const std::string &name) const;

    /** Kind of a registered name; fatal when absent. */
    MetricKind kindOf(const std::string &name) const;

    /** Value lookups by name; 0 when the name is absent. */
    std::uint64_t counterValue(const std::string &name) const;
    std::int64_t gaugeValue(const std::string &name) const;

    /** Number of registered metrics. */
    std::size_t size() const;

    /** Registered names, sorted (stable dump order). */
    std::vector<std::string> names() const;

    /** Zero every value; registrations and handles stay valid. */
    void reset();

    /**
     * JSON object dump:
     *   {"counters": {...}, "gauges": {...}, "histograms": {}}
     * The histograms group is always empty; it stays so that every
     * metrics file keeps its bytes.
     */
    void writeJson(std::ostream &os) const;
    std::string toJson() const;

  private:
    struct Cell
    {
        std::string name;
        MetricKind kind;
        std::atomic<std::uint64_t> counter{0};
        std::atomic<std::int64_t> gauge{0};
    };

    Cell &getOrCreate(const std::string &name, MetricKind kind);

    mutable std::mutex mu;
    std::deque<Cell> cells;               ///< stable addresses
    std::map<std::string, Cell *> index;
};

} // namespace ct::obs

#endif // CT_OBS_METRICS_H
