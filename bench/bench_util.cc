#include "bench_util.h"

#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <map>
#include <mutex>

#include "core/style_registry.h"
#include "sweep/farm.h"
#include "util/logging.h"

namespace ct::bench {

namespace {

/**
 * Row -> counter -> value. std::map keys both levels, so the dump
 * order is canonical (sorted by row name, then counter name) no
 * matter which worker recorded a row first.
 */
using SummaryRows =
    std::map<std::string, std::map<std::string, double>>;

/** The shared summary store and the mutex guarding it. Sweep workers
 *  record concurrently through recordSummaryRow(). */
SummaryRows &
summaryRows()
{
    static SummaryRows rows;
    return rows;
}

std::mutex &
summaryMutex()
{
    static std::mutex mu;
    return mu;
}

/** Sweep cells queued by registerSweep() and their merged results,
 *  slotted by cell index (the canonical-order merge). */
struct SweepState
{
    std::vector<SweepCell> cells;
    std::vector<std::vector<std::pair<std::string, double>>> results;
};

SweepState &
sweepState()
{
    static SweepState state;
    return state;
}

/**
 * Console reporter that funnels every row's user counters into the
 * shared summary store, so the summary holds exactly what the
 * benchmark report printed (idempotent for farmed rows, which were
 * already recorded by their worker).
 */
class SummaryReporter : public benchmark::ConsoleReporter
{
  public:
    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &run : runs)
            if (run.run_type == Run::RT_Iteration)
                for (const auto &[name, counter] : run.counters) {
                    // "wall_*" counters are host wall-clock derived:
                    // visible in the console report and the archived
                    // --benchmark_out JSON, but never in the summary
                    // the perf gate diffs against baselines.
                    if (name.rfind("wall_", 0) == 0)
                        continue;
                    recordSummaryRow(run.benchmark_name(), name,
                                     counter.value);
                }
        ConsoleReporter::ReportRuns(runs);
    }
};

/**
 * Fan the queued sweep cells across a farm. BENCH_THREADS picks the
 * worker count ([1, 256]; 1 = serial inline, the default); results
 * land in canonical cell order regardless of the steal schedule.
 */
void
runSweepCells()
{
    SweepState &sw = sweepState();
    if (sw.cells.empty())
        return;
    sweep::Farm farm({benchThreads(), 0});
    farm.forEach(sw.cells.size(), [&sw](std::size_t i, int) {
        sw.results[i] = sw.cells[i].run();
        // Record under the name google-benchmark will report for the
        // republisher row (Iterations(1) appends the annotation), so
        // the worker-side and reporter-side recordings are the same
        // rows and the summary matches the committed baselines.
        std::string row = sw.cells[i].name + "/iterations:1";
        for (const auto &[counter, value] : sw.results[i])
            recordSummaryRow(row, counter, value);
    });
}

void
writeSummary(const std::string &path, const char *bench_name,
             const SummaryRows &rows)
{
    std::ofstream out(path);
    if (!out) {
        util::warn("bench summary: cannot write '", path, "'");
        return;
    }
    // max_digits10 makes the doubles round-trip exactly, so equal
    // simulations produce byte-identical summaries.
    out << std::setprecision(17);
    out << "{\n  \"bench\": \"" << bench_name << "\",\n"
        << "  \"rows\": {\n";
    std::size_t r = 0;
    for (const auto &[row, counters] : rows) {
        out << "    \"" << row << "\": {";
        std::size_t c = 0;
        for (const auto &[name, value] : counters) {
            out << "\"" << name << "\": " << value;
            if (++c < counters.size())
                out << ", ";
        }
        out << "}";
        if (++r < rows.size())
            out << ",";
        out << "\n";
    }
    out << "  }\n}\n";
}

} // namespace

std::unique_ptr<rt::MessageLayer>
makeStyleLayer(MachineId machine, Style style)
{
    auto program =
        core::buildProgram(machine, style, AccessPattern::contiguous(),
                           AccessPattern::contiguous());
    if (!program)
        util::fatal("makeStyleLayer: style not available on this "
                    "machine");
    return rt::lowerProgram(*program);
}

std::string
benchLabel(Style style)
{
    std::string key = core::styleName(style);
    return key == "buffer-packing" ? "packing" : key;
}

double
exchangeMBps(MachineId machine, Style style, AccessPattern x,
             AccessPattern y, std::uint64_t words)
{
    auto program = core::buildProgram(machine, style, x, y);
    if (!program)
        util::fatal("exchangeMBps: style not available for ",
                    x.label(), "Q", y.label());
    rt::SimBackend backend(sim::configFor(machine));
    rt::SimRun run = backend.exchange(*program, words);
    if (run.corruptWords != 0)
        util::fatal("exchangeMBps: corrupted delivery for ",
                    x.label(), "Q", y.label());
    return run.perNodeMBps;
}

void
setCounter(benchmark::State &state, const char *name, double value)
{
    state.counters[name] = benchmark::Counter(value);
}

int
benchThreads()
{
    const char *env = std::getenv("BENCH_THREADS");
    if (!env || *env == '\0')
        return 0;
    int parsed = 0;
    std::string error;
    if (!sweep::parseThreadCount(env, parsed, error))
        util::fatal("BENCH_THREADS: ", error);
    return parsed == 1 ? 0 : parsed;
}

void
recordSummaryRow(const std::string &row, const std::string &counter,
                 double value)
{
    std::lock_guard<std::mutex> lock(summaryMutex());
    summaryRows()[row][counter] = value;
}

void
registerSweep(std::vector<SweepCell> cells,
              std::optional<benchmark::TimeUnit> unit)
{
    SweepState &sw = sweepState();
    for (SweepCell &cell : cells) {
        std::size_t index = sw.cells.size();
        auto *b = benchmark::RegisterBenchmark(
            cell.name.c_str(), [index](benchmark::State &state) {
                for (auto _ : state) {
                }
                for (const auto &[counter, value] :
                     sweepState().results[index])
                    setCounter(state, counter.c_str(), value);
            });
        b->Iterations(1);
        if (unit)
            b->Unit(*unit);
        sw.cells.push_back(std::move(cell));
    }
    sw.results.resize(sw.cells.size());
}

int
runBenchmarks(int argc, char **argv, const char *bench_name)
{
    benchmark::Initialize(&argc, argv);
    runSweepCells();
    SummaryReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    const char *env = std::getenv("BENCH_SUMMARY");
    std::string path = env ? env : "BENCH_summary.json";
    if (!path.empty()) {
        std::lock_guard<std::mutex> lock(summaryMutex());
        writeSummary(path, bench_name, summaryRows());
    }
    return 0;
}

core::MessageCostModel
modelCost(MachineId machine, core::Style style, AccessPattern x,
          AccessPattern y)
{
    for (const core::SizedPlan &p : core::planForSize(machine, x, y, 0))
        if (p.style == style)
            return p.model;
    util::fatal("modelCost: style not available on this machine");
}

double
modelMBps(MachineId machine, core::Style style, AccessPattern x,
          AccessPattern y)
{
    return modelCost(machine, style, x, y).asymptotic();
}

} // namespace ct::bench
