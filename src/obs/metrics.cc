#include "metrics.h"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "util/logging.h"

namespace ct::obs {

namespace {

const char *
kindName(MetricKind kind)
{
    switch (kind) {
    case MetricKind::Counter:
        return "counter";
    case MetricKind::Gauge:
        return "gauge";
    }
    return "?";
}

} // namespace

MetricsRegistry::Cell &
MetricsRegistry::getOrCreate(const std::string &name, MetricKind kind)
{
    if (name.empty())
        util::fatal("MetricsRegistry: empty metric name");
    std::lock_guard<std::mutex> lock(mu);
    auto it = index.find(name);
    if (it != index.end()) {
        if (it->second->kind != kind)
            util::fatal("MetricsRegistry: '", name,
                        "' already registered as ",
                        kindName(it->second->kind),
                        ", requested as ", kindName(kind));
        return *it->second;
    }
    cells.emplace_back();
    Cell &cell = cells.back();
    cell.name = name;
    cell.kind = kind;
    index.emplace(name, &cell);
    return cell;
}

Counter
MetricsRegistry::counter(const std::string &name)
{
    return Counter(&getOrCreate(name, MetricKind::Counter).counter);
}

Gauge
MetricsRegistry::gauge(const std::string &name)
{
    return Gauge(&getOrCreate(name, MetricKind::Gauge).gauge);
}

bool
MetricsRegistry::has(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu);
    return index.find(name) != index.end();
}

MetricKind
MetricsRegistry::kindOf(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu);
    auto it = index.find(name);
    if (it == index.end())
        util::fatal("MetricsRegistry: unknown metric '", name, "'");
    return it->second->kind;
}

std::uint64_t
MetricsRegistry::counterValue(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu);
    auto it = index.find(name);
    if (it == index.end() || it->second->kind != MetricKind::Counter)
        return 0;
    return it->second->counter.load(std::memory_order_relaxed);
}

std::int64_t
MetricsRegistry::gaugeValue(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu);
    auto it = index.find(name);
    if (it == index.end() || it->second->kind != MetricKind::Gauge)
        return 0;
    return it->second->gauge.load(std::memory_order_relaxed);
}

std::size_t
MetricsRegistry::size() const
{
    std::lock_guard<std::mutex> lock(mu);
    return cells.size();
}

std::vector<std::string>
MetricsRegistry::names() const
{
    std::lock_guard<std::mutex> lock(mu);
    std::vector<std::string> out;
    out.reserve(cells.size());
    for (const auto &[name, cell] : index)
        out.push_back(name);
    return out;
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mu);
    for (Cell &cell : cells) {
        cell.counter.store(0, std::memory_order_relaxed);
        cell.gauge.store(0, std::memory_order_relaxed);
    }
}

void
MetricsRegistry::writeJson(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mu);
    auto emitGroup = [&](MetricKind kind, const char *label,
                         bool first_group) {
        if (!first_group)
            os << ",\n";
        os << "  \"" << label << "\": {";
        bool first = true;
        for (const auto &[name, cell] : index) {
            if (cell->kind != kind)
                continue;
            os << (first ? "\n" : ",\n") << "    \"" << name
               << "\": ";
            first = false;
            if (kind == MetricKind::Counter)
                os << cell->counter.load(std::memory_order_relaxed);
            else
                os << cell->gauge.load(std::memory_order_relaxed);
        }
        os << (first ? "}" : "\n  }");
    };
    os << "{\n";
    emitGroup(MetricKind::Counter, "counters", true);
    emitGroup(MetricKind::Gauge, "gauges", false);
    os << ",\n  \"histograms\": {}\n}\n";
}

std::string
MetricsRegistry::toJson() const
{
    std::ostringstream os;
    writeJson(os);
    return os.str();
}

} // namespace ct::obs
