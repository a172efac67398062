/**
 * @file
 * The `sweep` workload: many small simulations on a four-thread farm.
 * One pass runs what `ctplan validate` and `ctplan sweep` do: the
 * 97-cell model-vs-simulator cross-validation (rt::crossValidate,
 * including its serial measured tables), then the fig4 copy grid, a
 * faulted exchange grid and the nodes:8..8192 scale grid through
 * sweep::runGrid on one sweep::Farm, each rendered as text and JSON.
 * Per-cell set-up (machine construction, program building), farm
 * scheduling, the memory system without the network (copy cells),
 * the reliable transport under faults and 8192-node congestion
 * analysis are the main costs.
 *
 * The seed chooses the fault seed of the faulted grid's cells. A
 * pass is correct when every validation cell passes and no grid cell
 * delivered a corrupt word; the digest covers the rendered reports.
 */

#include <cmath>
#include <optional>

#include "core/analytic_backend.h"
#include "core/style_registry.h"
#include "rt/sim_backend.h"
#include "rt/validation.h"
#include "sim/measure.h"
#include "sweep/farm.h"
#include "sweep/grid.h"
#include "workloads.h"

namespace hostbench {

namespace {

using namespace ct;

constexpr int kThreads = 4;

struct NamedGrid
{
    const char *name;
    sweep::Grid grid;
};

/** The three grids; the seed goes into the faulted cells' specs. */
std::vector<NamedGrid>
grids(std::uint64_t seed)
{
    std::string s = ",seed=" + std::to_string(seed);
    std::string faulted =
        "machine=t3d;style=chained,buffer-packing;x=4;y=4;words=2048;"
        "faults=none|drop=0.001" + s + "|drop=0.01" + s + "|drop=0.05" +
        s + "|drop=0.1" + s;
    std::vector<NamedGrid> out;
    for (auto [name, spec] : {std::pair<const char *, std::string>{"fig4", "fig4"},
                              {"faulted", faulted},
                              {"scale", "nodes:8..8192"}}) {
        std::string error;
        std::optional<sweep::Grid> grid = sweep::Grid::parse(spec, &error);
        if (!grid) {
            std::fprintf(stderr, "hostbench: bad grid '%s': %s\n",
                         spec.c_str(), error.c_str());
            return {};
        }
        out.push_back({name, std::move(*grid)});
    }
    return out;
}

/** One pass's outcome. */
struct Pass
{
    double wallS = 0.0;
    /** Host seconds of each command (validate, then each grid). */
    std::vector<double> commandS;
    std::uint64_t cells = 0;
    std::uint64_t failed = 0;
    double worstErrPct = 0.0;
    Digest digest;
    /** Farmed wall of the traced pass: its farm.map() spans. */
    double farmedS = 0.0;
};

/** Render a validation report as `ctplan validate` does, both ways,
 *  and fold it into the pass. */
void
finishValidation(Trace *trace, const rt::ValidationReport &report, Pass &pass)
{
    std::string text, json;
    {
        Span s(trace, "rt", "render.validation");
        text = rt::formatValidation(report);
        json = rt::validationJson(report);
    }
    pass.digest.add(std::string_view(text));
    pass.digest.add(std::string_view(json));
    for (const rt::ValidationCell &c : report.cells) {
        pass.digest.add(c.modelMBps);
        pass.digest.add(c.simMBps);
        pass.failed += c.pass ? 0 : 1;
    }
    pass.cells += report.cells.size();
    pass.worstErrPct = report.worstAbsErrPct;
    if (!report.allPass && pass.failed == 0)
        pass.failed = 1;
}

void
finishGrid(Trace *trace, const std::vector<sweep::CellResult> &results,
           Pass &pass)
{
    std::string text, json;
    {
        Span s(trace, "sweep", "render.results");
        text = sweep::formatResults(results);
        json = sweep::resultsJson(results);
    }
    pass.digest.add(std::string_view(text));
    pass.digest.add(std::string_view(json));
    for (const sweep::CellResult &r : results)
        pass.failed += r.corruptWords != 0 ? 1 : 0;
    pass.cells += results.size();
}

/** The untraced pass: the calls `ctplan validate` / `sweep` make. */
Pass
runPass(sweep::Farm &farm, const std::vector<NamedGrid> &named)
{
    Pass pass;
    Clock::time_point t0 = Clock::now();
    {
        Clock::time_point c0 = Clock::now();
        rt::ValidationOptions vo;
        vo.threads = kThreads;
        finishValidation(nullptr, rt::crossValidate(vo), pass);
        pass.commandS.push_back(secondsSince(c0));
    }
    for (const NamedGrid &g : named) {
        Clock::time_point c0 = Clock::now();
        finishGrid(nullptr, sweep::runGrid(g.grid, farm), pass);
        pass.commandS.push_back(secondsSince(c0));
    }
    pass.wallS = secondsSince(t0);
    return pass;
}

const char *
cellSpanName(const sweep::CellSpec &spec)
{
    if (spec.kind == sweep::CellKind::Copy)
        return "cell.copy";
    if (spec.nodes != 0)
        return "cell.scale";
    if (spec.faults.any())
        return "cell.faulted";
    return "cell.exchange";
}

/**
 * crossValidate() decomposed into the public calls it is made of
 * (measured tables, program building, prediction, simulation), each
 * in a span, with the cells on @p farm. Builds the same report.
 */
rt::ValidationReport
tracedValidation(Trace *trace, sweep::Farm &farm, Pass &pass)
{
    rt::ValidationReport report;
    report.options.threads = kThreads;
    const rt::ValidationOptions &options = report.options;
    const std::vector<core::AccessPattern> patterns = {
        core::AccessPattern::contiguous(), core::AccessPattern::strided(16),
        core::AccessPattern::strided(64), core::AccessPattern::indexed()};

    struct MachineCtx
    {
        core::MachineId id;
        sim::MachineConfig cfg;
        core::ThroughputTable table;
        core::ExecutionProfile profile;
    };
    std::vector<MachineCtx> machines;
    for (core::MachineId id : {core::MachineId::T3d, core::MachineId::Paragon}) {
        MachineCtx ctx{id, sim::configFor(id), {}, {}};
        {
            Span s(trace, "sim", "measure.table");
            ctx.table = sim::measuredTable(ctx.cfg);
        }
        ctx.profile = rt::executionProfileFor(ctx.cfg);
        machines.push_back(std::move(ctx));
    }

    struct Pending
    {
        const MachineCtx *ctx;
        std::string style;
        core::AccessPattern x, y;
        core::TransferProgram program;
    };
    std::vector<Pending> pending;
    for (const MachineCtx &ctx : machines)
        for (const core::StyleInfo &info : core::styleRegistry())
            for (const core::AccessPattern &x : patterns)
                for (const core::AccessPattern &y : patterns) {
                    std::optional<core::TransferProgram> program;
                    {
                        Span s(trace, "core", "build_program");
                        program = core::buildProgram(ctx.id, info.key, x, y);
                    }
                    if (program)
                        pending.push_back(
                            {&ctx, info.key, x, y, std::move(*program)});
                }

    Span map(trace, "sweep", "farm.map");
    const std::uint64_t parent = map.id();
    auto cells = farm.map<std::optional<rt::ValidationCell>>(
        pending.size(),
        [&](std::size_t i, int) -> std::optional<rt::ValidationCell> {
            const Pending &p = pending[i];
            Span cell(trace, "sweep", "cell.xval", trace->nextOp(), parent);
            std::optional<double> model;
            {
                Span s(trace, "core", "predict");
                core::AnalyticBackend analytic(p.ctx->table, p.ctx->profile);
                model = analytic.predictThroughputAt(
                    p.program, options.words * 8, 1.0);
            }
            if (!model)
                return std::nullopt;
            rt::SimRun run;
            {
                Span s(trace, "rt", "sim_execute");
                rt::SimBackend backend(p.ctx->cfg);
                run = backend.execute(p.program, options.words);
            }
            rt::ValidationCell c;
            c.machine = p.ctx->id;
            c.machineName = p.ctx->cfg.name;
            c.style = p.style;
            c.x = p.x.label();
            c.y = p.y.label();
            c.formula = p.program.format();
            c.modelMBps = *model;
            c.simMBps = run.perNodeMBps;
            if (run.corruptWords != 0 || run.perNodeMBps <= 0.0) {
                c.errorPct = 100.0;
                c.pass = false;
            } else {
                c.errorPct = (c.modelMBps - c.simMBps) / c.simMBps * 100.0;
                c.pass = std::abs(c.errorPct) <= options.tolerancePct;
            }
            return c;
        });
    pass.farmedS += map.stop();

    for (std::optional<rt::ValidationCell> &c : cells) {
        if (!c)
            continue;
        report.worstAbsErrPct =
            std::max(report.worstAbsErrPct, std::abs(c->errorPct));
        report.allPass = report.allPass && c->pass;
        report.cells.push_back(std::move(*c));
    }
    return report;
}

/** runGrid() as its parts: expansion, then runCell per cell. */
std::vector<sweep::CellResult>
tracedGrid(Trace *trace, sweep::Farm &farm, const sweep::Grid &grid,
           Pass &pass)
{
    std::vector<sweep::CellSpec> cells;
    {
        Span s(trace, "sweep", "expand");
        cells = grid.cells();
    }
    Span map(trace, "sweep", "farm.map");
    const std::uint64_t parent = map.id();
    auto results = farm.map<sweep::CellResult>(
        cells.size(), [&](std::size_t i, int) {
            Span cell(trace, "sweep", cellSpanName(cells[i]), trace->nextOp(),
                      parent);
            return sweep::runCell(cells[i]);
        });
    pass.farmedS += map.stop();
    return results;
}

Pass
tracedPass(Trace *trace, sweep::Farm &farm, const std::vector<NamedGrid> &named)
{
    Pass pass;
    Clock::time_point t0 = Clock::now();
    {
        Span cmd(trace, "bench", "validate");
        finishValidation(trace, tracedValidation(trace, farm, pass), pass);
    }
    for (const NamedGrid &g : named) {
        Span cmd(trace, "bench", g.name);
        finishGrid(trace, tracedGrid(trace, farm, g.grid, pass), pass);
    }
    pass.wallS = secondsSince(t0);
    return pass;
}

} // namespace

Outcome
runSweep(const RunOptions &options)
{
    Outcome out;

    // Set-up: the farm, the grids, and one warm-up pass.
    std::vector<double> setup_times;
    std::unique_ptr<sweep::Farm> farm;
    std::vector<NamedGrid> named;
    std::string warm_digest;
    for (int i = 0; i < kSetups; ++i) {
        farm.reset(); // the last set-up's teardown is not timed
        named.clear();
        Clock::time_point t0 = Clock::now();
        farm = std::make_unique<sweep::Farm>(sweep::FarmOptions{kThreads, 0});
        named = grids(options.seed);
        if (named.empty()) {
            out.correct = false;
            return out;
        }
        Pass warm = runPass(*farm, named);
        setup_times.push_back(secondsSince(t0));
        out.attempted += warm.cells;
        out.failed += warm.failed;
        warm_digest = warm.digest.hex();
    }

    if (!options.trace) {
        // cells_per_s divides a pass's cells by the sum of each
        // command's median time over the passes, so a burst of host
        // noise during one pass moves it little. A host-speed probe
        // before every pass gives the rate per probe time as well.
        std::vector<std::vector<double>> command_s;
        std::vector<double> command_ms, pass_rates, probes;
        std::uint64_t cells = 0;
        double worst = 0.0;
        Clock::time_point t0 = Clock::now();
        do {
            probes.push_back(probeSeconds(1));
            Pass pass = runPass(*farm, named);
            command_s.resize(pass.commandS.size());
            for (std::size_t i = 0; i < pass.commandS.size(); ++i) {
                command_s[i].push_back(pass.commandS[i]);
                command_ms.push_back(pass.commandS[i] * 1e3);
            }
            cells = pass.cells;
            pass_rates.push_back(static_cast<double>(pass.cells) / pass.wallS);
            out.attempted += pass.cells;
            out.failed += pass.failed;
            worst = pass.worstErrPct;
            if (pass.digest.hex() != warm_digest)
                out.correct = false;
        } while (secondsSince(t0) < options.seconds);
        double median_pass_s = 0.0;
        for (const std::vector<double> &times : command_s)
            median_pass_s += median(times);
        const std::uint64_t passes = command_s.empty() ? 0 : command_s[0].size();
        out.digest = warm_digest;
        out.metrics = {
            {"cells_per_s", static_cast<double>(cells) / median_pass_s, "1/s",
             passes},
            {"cells_per_probe",
             static_cast<double>(cells) / median_pass_s * median(probes),
             "cells/probe", passes},
            {"probe_ms", median(probes) * 1e3, "ms", probes.size()},
            {"spread_within_run", iqrShare(pass_rates), "ratio",
             pass_rates.size()},
            {"command_ms_p50", percentile(command_ms, 50), "ms",
             command_ms.size()},
            {"command_ms_p99", percentile(command_ms, 99), "ms",
             command_ms.size()},
            {"xval_worst_err_pct", worst, "%", 97},
            {"setup_s", median(setup_times), "s", setup_times.size()},
        };
        out.correct = out.correct && out.failed == 0;
        return out;
    }

    // Traced run: an untraced pass as the baseline, then the traced one.
    Pass base = runPass(*farm, named);
    out.attempted += base.cells;
    out.failed += base.failed;
    sweep::FarmStats before = farm->stats();
    Trace trace(kTraceCapacity);
    Clock::time_point t0 = Clock::now();
    Span root(&trace, "bench", "sweep", 0, 0);
    Pass pass = tracedPass(&trace, *farm, named);
    root.stop();
    double traced_wall = secondsSince(t0);
    sweep::FarmStats after = farm->stats();
    out.attempted += pass.cells;
    out.failed += pass.failed;
    out.digest = pass.digest.hex();
    if (pass.digest.hex() != warm_digest || base.digest.hex() != warm_digest)
        out.correct = false;

    std::vector<SpanRecord> spans = trace.spans();
    double cell_sum_us = 0.0;
    for (const SpanRecord &s : spans)
        if (s.layer == "sweep" && s.name.rfind("cell.", 0) == 0)
            cell_sum_us += static_cast<double>(s.durNs()) / 1e3;
    std::vector<Metric> &m = out.metrics;
    m.push_back(spanMedian(spans, "core", "build_program",
                           "core.build_program_us", "us"));
    m.push_back(spanMedian(spans, "core", "predict", "core.predict_us", "us"));
    m.push_back(spanMedian(spans, "sim", "measure.table",
                           "sim.measure.table_ms", "ms"));
    for (const char *kind : {"xval", "copy", "faulted", "scale"}) {
        std::string cell = std::string("cell.") + kind;
        m.push_back(spanMedian(spans, "sweep", cell,
                               std::string("sweep.cell_ms.") + kind, "ms"));
    }
    double render_ms = 0.0;
    std::uint64_t renders = 0;
    for (const SpanRecord &s : spans)
        if (s.name.rfind("render.", 0) == 0) {
            render_ms += static_cast<double>(s.durNs()) / 1e6;
            ++renders;
        }
    m.push_back({"sweep.render_ms", render_ms, "ms", renders});
    m.push_back({"sweep.farm.efficiency",
                 cell_sum_us / 1e6 / (kThreads * pass.farmedS), "ratio",
                 pass.cells});
    m.push_back({"sweep.farm.steals",
                 static_cast<double>(after.steals - before.steals), "count",
                 after.chunks - before.chunks});
    if (!finishTrace(trace, traced_wall, pass.wallS / base.wallS,
                     options.traceOut, m))
        out.correct = false;
    out.correct = out.correct && out.failed == 0;
    return out;
}

} // namespace hostbench
