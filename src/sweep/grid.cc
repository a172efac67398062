#include "sweep/grid.h"

#include <iomanip>
#include <sstream>

#include "core/analytic_backend.h"
#include "core/style_registry.h"
#include "rt/sim_backend.h"
#include "rt/workload.h"
#include "sim/machine.h"
#include "sim/measure.h"
#include "util/string_util.h"
#include "util/table.h"

namespace ct::sweep {

namespace {

const char *
machineLabel(core::MachineId id)
{
    return id == core::MachineId::T3d ? "t3d" : "paragon";
}

std::string
cellId(const CellSpec &spec)
{
    std::string id = machineLabel(spec.machine);
    id += '/';
    if (spec.kind == CellKind::Copy)
        id += "copy/" + spec.x.label() + "C" + spec.y.label();
    else
        id += spec.style + "/" + spec.x.label() + "Q" +
              spec.y.label();
    id += "/w" + std::to_string(spec.words);
    if (spec.nodes != 0)
        id += "/n" + std::to_string(spec.nodes);
    if (spec.faults.any())
        id += "/" + spec.faults.summary();
    return id;
}

std::vector<std::string>
allStyleKeys()
{
    std::vector<std::string> keys;
    for (const core::StyleInfo &info : core::styleRegistry())
        keys.push_back(info.key);
    return keys;
}

} // namespace

Grid &
Grid::kind(CellKind k)
{
    kindValue = k;
    return *this;
}

Grid &
Grid::machines(std::vector<core::MachineId> ms)
{
    machineList = std::move(ms);
    return *this;
}

Grid &
Grid::styles(std::vector<std::string> keys)
{
    styleList = std::move(keys);
    return *this;
}

Grid &
Grid::xs(std::vector<core::AccessPattern> patterns)
{
    xList = std::move(patterns);
    return *this;
}

Grid &
Grid::ys(std::vector<core::AccessPattern> patterns)
{
    yList = std::move(patterns);
    return *this;
}

Grid &
Grid::pairs(std::vector<std::pair<core::AccessPattern,
                                  core::AccessPattern>> pattern_pairs)
{
    pairList = std::move(pattern_pairs);
    return *this;
}

Grid &
Grid::words(std::vector<std::uint64_t> counts)
{
    wordList = std::move(counts);
    return *this;
}

Grid &
Grid::nodes(std::vector<int> counts)
{
    nodeList = std::move(counts);
    return *this;
}

Grid &
Grid::faults(std::vector<sim::FaultSpec> specs)
{
    faultList = std::move(specs);
    return *this;
}

std::vector<CellSpec>
Grid::cells() const
{
    std::vector<core::MachineId> machines = machineList;
    if (machines.empty())
        machines = {core::MachineId::T3d, core::MachineId::Paragon};
    std::vector<std::string> styles = styleList;
    if (styles.empty() && kindValue == CellKind::Exchange)
        styles = allStyleKeys();
    if (kindValue == CellKind::Copy)
        styles = {""}; // copies have no style dimension
    std::vector<std::pair<core::AccessPattern, core::AccessPattern>>
        pattern_pairs = pairList;
    if (pattern_pairs.empty()) {
        std::vector<core::AccessPattern> xs = xList;
        if (xs.empty())
            xs = {core::AccessPattern::contiguous()};
        std::vector<core::AccessPattern> ys = yList;
        if (ys.empty())
            ys = {core::AccessPattern::contiguous()};
        for (const core::AccessPattern &x : xs)
            for (const core::AccessPattern &y : ys)
                pattern_pairs.emplace_back(x, y);
    }
    std::vector<std::uint64_t> word_counts = wordList;
    if (word_counts.empty())
        word_counts = {kindValue == CellKind::Copy ? sim::measureWords
                                                   : 1 << 14};
    std::vector<sim::FaultSpec> fault_specs = faultList;
    if (fault_specs.empty())
        fault_specs = {sim::FaultSpec{}};
    std::vector<int> node_counts = nodeList;
    if (node_counts.empty() || kindValue == CellKind::Copy)
        node_counts = {0}; // default dims; copies have no network

    std::vector<CellSpec> out;
    for (core::MachineId machine : machines) {
        for (const std::string &style : styles) {
            for (const auto &[x, y] : pattern_pairs) {
                // Filter illegal exchange cells at expansion time so
                // the canonical list never depends on run outcomes.
                if (kindValue == CellKind::Exchange &&
                    !core::buildProgram(machine, style, x, y))
                    continue;
                for (std::uint64_t words : word_counts) {
                    for (int nodes : node_counts) {
                        for (const sim::FaultSpec &faults :
                             fault_specs) {
                            CellSpec spec;
                            spec.kind = kindValue;
                            spec.machine = machine;
                            spec.style = style;
                            spec.x = x;
                            spec.y = y;
                            spec.words = words;
                            spec.nodes = nodes;
                            spec.faults = faults;
                            spec.id = cellId(spec);
                            out.push_back(std::move(spec));
                        }
                    }
                }
            }
        }
    }
    return out;
}

namespace {

/** The machine a cell runs on (runCell builds exactly this). */
sim::MachineConfig
cellConfig(const CellSpec &spec)
{
    sim::MachineConfig cfg =
        spec.nodes != 0 ? sim::configFor(spec.machine, spec.nodes)
                        : sim::configFor(spec.machine);
    cfg.faults = spec.faults;
    return cfg;
}

/** The program an exchange cell runs: behind the reliable transport
 *  on a faulted wire, raw like the paper's measurements otherwise. */
std::optional<core::TransferProgram>
cellProgram(const CellSpec &spec)
{
    auto program =
        core::buildProgram(spec.machine, spec.style, spec.x, spec.y);
    if (program && spec.faults.any())
        program = core::withReliability(std::move(*program));
    return program;
}

/** Why a cell's simulated exchange cannot run: an outage target
 *  its machine lacks, or buffers that cannot fit a node's RAM; empty
 *  when it can or the cell runs no exchange sim. */
std::string
cellFitError(const CellSpec &spec)
{
    if (spec.kind != CellKind::Exchange || spec.nodes > kScaleSimNodes)
        return {};
    sim::MachineConfig cfg = cellConfig(spec);
    if (std::string bad = sim::machineConfigError(cfg); !bad.empty())
        return bad;
    auto program = cellProgram(spec);
    return program ? rt::exchangeFitError(cfg, *program, spec.words)
                   : std::string();
}

std::optional<Grid>
presetGrid(const std::string &name, std::string *error)
{
    if (name == "fig4") {
        // The fig4 class: strided loads (sC1) then strided stores
        // (1Cs) over the power-of-two strides, on both machines.
        std::vector<
            std::pair<core::AccessPattern, core::AccessPattern>>
            pattern_pairs;
        for (std::uint32_t s = 1; s <= 256; s *= 2)
            pattern_pairs.emplace_back(
                core::AccessPattern::strided(s),
                core::AccessPattern::contiguous());
        for (std::uint32_t s = 2; s <= 256; s *= 2)
            pattern_pairs.emplace_back(
                core::AccessPattern::contiguous(),
                core::AccessPattern::strided(s));
        return Grid()
            .kind(CellKind::Copy)
            .pairs(std::move(pattern_pairs))
            .words({sim::measureWords});
    }
    if (name.rfind("nodes:", 0) == 0) {
        // The scale preset "nodes:LO..HI": chained exchange on both
        // machines at every power-of-two node count from LO to HI.
        // Cells past kScaleSimNodes answer from the analytic model
        // alone, so the top of the range costs microseconds.
        std::string range = name.substr(6);
        std::size_t dots = range.find("..");
        std::string_view hi_text = range;
        if (dots != std::string::npos)
            hi_text.remove_prefix(dots + 2);
        int lo = 0, hi = 0;
        if (!util::parseCount(range.substr(0, dots), 8, 8192, lo)
                 .empty() ||
            !util::parseCount(hi_text, lo, 8192, hi).empty() ||
            !sim::validScaleNodes(lo) || !sim::validScaleNodes(hi)) {
            if (error)
                *error = "bad scale range '" + range +
                         "' (expected LO..HI, powers of two in "
                         "[8, 8192])";
            return std::nullopt;
        }
        std::vector<int> counts;
        for (int n = lo; n <= hi; n *= 2)
            counts.push_back(n);
        return Grid()
            .styles({"chained"})
            .words({1024})
            .nodes(std::move(counts));
    }
    if (name == "faultsweep") {
        // Chained vs buffer packing as the wire degrades: the
        // representative stride/fault grid of the perf headline.
        std::vector<sim::FaultSpec> fault_specs{sim::FaultSpec{}};
        for (const char *spec :
             {"drop=0.001,seed=1", "drop=0.01,seed=1",
              "drop=0.05,seed=1", "drop=0.1,seed=1"})
            fault_specs.push_back(sim::FaultSpec::parse(spec));
        return Grid()
            .machines({core::MachineId::T3d})
            .styles({"chained", "buffer-packing"})
            .pairs({{core::AccessPattern::strided(4),
                     core::AccessPattern::strided(4)}})
            .words({2048})
            .faults(std::move(fault_specs));
    }
    if (error)
        *error = "unknown grid preset '" + name + "'";
    return std::nullopt;
}

} // namespace

std::optional<Grid>
Grid::parse(const std::string &spec, std::string *error)
{
    if (spec.empty()) {
        if (error)
            *error = "empty grid spec";
        return std::nullopt;
    }
    if (spec.find('=') == std::string::npos)
        return presetGrid(spec, error);

    Grid grid;
    bool seen[8] = {};
    enum
    {
        kKind,
        kMachine,
        kStyle,
        kX,
        kY,
        kWords,
        kNodes,
        kFaults
    };
    auto fail = [&](const std::string &message) {
        if (error)
            *error = message;
        return std::nullopt;
    };
    for (const std::string &clause : util::split(spec, ';')) {
        std::size_t eq = clause.find('=');
        if (eq == std::string::npos || eq == 0)
            return fail("bad grid clause '" + clause +
                        "' (expected key=value[,value...])");
        std::string key = clause.substr(0, eq);
        std::string value = clause.substr(eq + 1);
        if (value.empty())
            return fail("grid key '" + key + "' has an empty value");

        int index;
        if (key == "kind")
            index = kKind;
        else if (key == "machine")
            index = kMachine;
        else if (key == "style")
            index = kStyle;
        else if (key == "x")
            index = kX;
        else if (key == "y")
            index = kY;
        else if (key == "words")
            index = kWords;
        else if (key == "nodes")
            index = kNodes;
        else if (key == "faults")
            index = kFaults;
        else
            return fail("unknown grid key '" + key + "'");
        if (seen[index])
            return fail("duplicate grid key '" + key + "'");
        seen[index] = true;

        if (index == kKind) {
            if (value == "exchange")
                grid.kind(CellKind::Exchange);
            else if (value == "copy")
                grid.kind(CellKind::Copy);
            else
                return fail("bad kind '" + value +
                            "' (expected exchange or copy)");
        } else if (index == kMachine) {
            std::vector<core::MachineId> machines;
            for (const std::string &m : util::split(value, ',')) {
                if (m == "t3d")
                    machines.push_back(core::MachineId::T3d);
                else if (m == "paragon")
                    machines.push_back(core::MachineId::Paragon);
                else
                    return fail("unknown machine '" + m + "'");
            }
            grid.machines(std::move(machines));
        } else if (index == kStyle) {
            std::vector<std::string> styles;
            for (const std::string &s : util::split(value, ',')) {
                if (s == "all") {
                    styles.clear();
                    break;
                }
                if (!core::findStyle(s))
                    return fail("unknown style '" + s + "'");
                styles.push_back(s);
            }
            grid.styles(std::move(styles));
        } else if (index == kX || index == kY) {
            std::vector<core::AccessPattern> patterns;
            for (const std::string &p : util::split(value, ',')) {
                auto pattern = core::AccessPattern::parse(p);
                if (!pattern || pattern->isFixed())
                    return fail("bad pattern '" + p + "' for '" +
                                key + "'");
                patterns.push_back(*pattern);
            }
            if (index == kX)
                grid.xs(std::move(patterns));
            else
                grid.ys(std::move(patterns));
        } else if (index == kWords) {
            std::vector<std::uint64_t> counts;
            for (const std::string &w : util::split(value, ',')) {
                std::uint64_t v = 0;
                if (!util::parseCount(w, 1, UINT64_MAX, v).empty())
                    return fail("bad word count '" + w + "'");
                counts.push_back(v);
            }
            grid.words(std::move(counts));
        } else if (index == kNodes) {
            std::vector<int> counts;
            for (const std::string &n : util::split(value, ',')) {
                int v = 0;
                if (!util::parseCount(n, 8, 8192, v).empty() ||
                    !sim::validScaleNodes(v))
                    return fail("bad node count '" + n +
                                "' (powers of two in [8, 8192])");
                counts.push_back(v);
            }
            grid.nodes(std::move(counts));
        } else { // kFaults
            std::vector<sim::FaultSpec> fault_specs;
            for (const std::string &f : util::split(value, '|')) {
                if (f == "none") {
                    fault_specs.push_back(sim::FaultSpec{});
                    continue;
                }
                std::string parse_error;
                auto parsed = sim::FaultSpec::tryParse(f,
                                                      &parse_error);
                if (!parsed)
                    return fail("bad fault spec '" + f + "': " +
                                parse_error);
                fault_specs.push_back(*parsed);
            }
            grid.faults(std::move(fault_specs));
        }
    }
    if (seen[kNodes] && grid.kindValue == CellKind::Copy)
        return fail("grid key 'nodes' applies to exchange cells "
                    "only (copies have no network)");
    for (const CellSpec &cell : grid.cells())
        if (std::string unfit = cellFitError(cell); !unfit.empty())
            return fail("cell " + cell.id + ": " + unfit);
    return grid;
}

CellResult
runCell(const CellSpec &spec)
{
    CellResult result;
    result.id = spec.id;

    sim::MachineConfig cfg = cellConfig(spec);

    if (spec.kind == CellKind::Copy) {
        result.simMBps =
            sim::measureLocalCopy(cfg, spec.x, spec.y, spec.words);
        return result;
    }

    auto program = cellProgram(spec);
    if (!program)
        return result; // filtered at expansion; defensive only

    // Scale cells derive the congestion of the exchange pattern from
    // the scaled topology alone: a Topology plus the demand list is
    // the whole footprint, so an 8192-node analysis allocates O(links
    // touched), never a machine. Default-dims cells keep the paper's
    // default congestion, byte-for-byte as before.
    double congestion =
        core::paperCaps(spec.machine).defaultCongestion;
    if (spec.nodes != 0) {
        sim::Topology topo(cfg.topology);
        sim::CongestionReport report = topo.analyzeCongestion(
            rt::pairExchangeDemands(spec.nodes, spec.words * 8));
        congestion = report.factor;
        result.congestion = report.factor;
    }

    core::AnalyticBackend analytic(core::paperTable(spec.machine),
                                   rt::executionProfileFor(cfg));
    if (auto model = analytic.predictThroughputAt(
            *program, spec.words * 8, congestion))
        result.modelMBps = *model;

    // Past the sim cap the cell is analytic-only: the model answers
    // the large-N question; sampled smaller cells cross-validate it.
    if (spec.nodes > kScaleSimNodes)
        return result;

    rt::SimBackend backend(cfg);
    rt::SimRun run = backend.exchange(*program, spec.words);
    result.simMBps = run.perNodeMBps;
    result.makespanCycles =
        static_cast<std::uint64_t>(run.result.makespan);
    result.corruptWords = run.corruptWords;
    result.lostWords = run.lostWords;
    return result;
}

std::vector<CellResult>
runGrid(const Grid &grid, Farm &farm)
{
    const std::vector<CellSpec> cells = grid.cells();
    return farm.map<CellResult>(
        cells.size(),
        [&cells](std::size_t i, int) { return runCell(cells[i]); });
}

std::string
formatResults(const std::vector<CellResult> &results)
{
    util::TextTable table({"cell", "sim MB/s", "model MB/s"});
    for (const CellResult &r : results)
        table.addRow({r.id,
                      r.simMBps > 0.0
                          ? util::TextTable::num(r.simMBps, 2)
                          : "-", // analytic-only scale cell
                      r.modelMBps > 0.0
                          ? util::TextTable::num(r.modelMBps, 2)
                          : "-"});
    return table.render();
}

std::string
resultsJson(const std::vector<CellResult> &results)
{
    std::ostringstream os;
    // max_digits10 round-trips doubles exactly: equal sweeps render
    // byte-identical JSON (the threads=1 vs threads=N cmp gate).
    os << std::setprecision(17);
    os << "{\n  \"cells\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const CellResult &r = results[i];
        os << "    {\"id\": \"" << r.id
           << "\", \"sim_mbps\": " << r.simMBps
           << ", \"model_mbps\": " << r.modelMBps
           << ", \"makespan_cycles\": " << r.makespanCycles
           << ", \"corrupt_words\": " << r.corruptWords;
        if (r.lostWords > 0)
            os << ", \"lost_words\": " << r.lostWords;
        os << ", \"congestion\": " << r.congestion << "}"
           << (i + 1 < results.size() ? "," : "") << "\n";
    }
    os << "  ]\n}\n";
    return os.str();
}

} // namespace ct::sweep
