#include "validation.h"

#include <cmath>
#include <iomanip>
#include <optional>
#include <sstream>

#include "core/analytic_backend.h"
#include "core/style_registry.h"
#include "rt/sim_backend.h"
#include "sim/measure.h"
#include "sweep/farm.h"
#include "util/logging.h"

namespace ct::rt {

ValidationReport
crossValidate(ValidationOptions options)
{
    ValidationReport report;
    report.options = options;

    const std::vector<core::AccessPattern> patterns = {
        core::AccessPattern::contiguous(),
        core::AccessPattern::strided(16),
        core::AccessPattern::strided(64),
        core::AccessPattern::indexed(),
    };

    // Per-machine inputs. The workers only ever read these (shared
    // immutable state is fine; DESIGN.md §14).
    struct MachineCtx
    {
        sim::MachineConfig cfg;
        core::ThroughputTable table;
        core::ExecutionProfile profile;
    };
    const std::vector<sim::MachineConfig> configs = {
        sim::configFor(core::MachineId::T3d),
        sim::configFor(core::MachineId::Paragon)};
    sweep::Farm farm({options.threads, 0});
    // Feed the model the simulator-measured basic-transfer table,
    // exactly as the paper feeds measured figures into the model:
    // the comparison then tests the *composition rules*, not the
    // table values. Both machines' campaigns run as one batch on the
    // farm, and each table comes out as sim::measuredTable() would
    // build it.
    std::vector<core::ThroughputTable> tables =
        sim::measuredTables(configs, farm);
    std::vector<MachineCtx> machines;
    for (std::size_t mi = 0; mi < configs.size(); ++mi)
        machines.push_back({configs[mi], std::move(tables[mi]),
                            executionProfileFor(configs[mi])});

    // Expand the full cell list before anything runs, so the merged
    // report is a pure function of the grid (never of the schedule).
    struct PendingCell
    {
        std::size_t machineIndex = 0;
        core::MachineId id = core::MachineId::T3d;
        std::string style;
        core::AccessPattern x, y;
        core::TransferProgram program;
    };
    std::vector<PendingCell> pending;
    for (std::size_t mi = 0; mi < machines.size(); ++mi) {
        core::MachineId id = mi == 0 ? core::MachineId::T3d
                                     : core::MachineId::Paragon;
        for (const core::StyleInfo &info : core::styleRegistry()) {
            for (const core::AccessPattern &x : patterns) {
                for (const core::AccessPattern &y : patterns) {
                    auto program =
                        core::buildProgram(id, info.key, x, y);
                    if (!program)
                        continue; // illegal cell on this machine
                    pending.push_back({mi, id, info.key, x, y,
                                       std::move(*program)});
                }
            }
        }
    }

    // Each cell builds its own backends from the shared read-only
    // inputs; results land in canonical cell order regardless of the
    // steal schedule.
    auto cells = farm.map<std::optional<ValidationCell>>(
        pending.size(),
        [&](std::size_t i, int) -> std::optional<ValidationCell> {
            const PendingCell &p = pending[i];
            const MachineCtx &ctx = machines[p.machineIndex];
            core::AnalyticBackend analytic(ctx.table, ctx.profile);
            // The cells run one flow 0 -> 1: congestion 1.
            auto model = analytic.predictThroughputAt(
                p.program, options.words * 8, 1.0);
            if (!model) {
                util::warn("crossValidate: cannot predict ", p.style,
                           " ", p.x.label(), "Q", p.y.label(), " on ",
                           ctx.cfg.name, "; skipping");
                return std::nullopt;
            }
            SimBackend backend(ctx.cfg);
            SimRun run = backend.execute(p.program, options.words);

            ValidationCell cell;
            cell.machine = p.id;
            cell.machineName = ctx.cfg.name;
            cell.style = p.style;
            cell.x = p.x.label();
            cell.y = p.y.label();
            cell.formula = p.program.format();
            cell.modelMBps = *model;
            cell.simMBps = run.perNodeMBps;
            if (run.corruptWords != 0 || run.perNodeMBps <= 0.0) {
                util::warn("crossValidate: corrupted or empty run "
                           "for ",
                           p.style, " ", p.x.label(), "Q",
                           p.y.label(), " on ", ctx.cfg.name);
                cell.errorPct = 100.0;
                cell.pass = false;
            } else {
                cell.errorPct = (cell.modelMBps - cell.simMBps) /
                                cell.simMBps * 100.0;
                cell.pass =
                    std::abs(cell.errorPct) <= options.tolerancePct;
            }
            return cell;
        });

    for (std::optional<ValidationCell> &cell : cells) {
        if (!cell)
            continue;
        report.worstAbsErrPct = std::max(report.worstAbsErrPct,
                                         std::abs(cell->errorPct));
        report.allPass = report.allPass && cell->pass;
        report.cells.push_back(std::move(*cell));
    }
    return report;
}

std::string
formatValidation(const ValidationReport &report)
{
    std::ostringstream os;
    os << "model vs simulator, one TransferProgram per cell ("
       << report.options.words << " words, tolerance "
       << report.options.tolerancePct << "%):\n";
    os << std::left << std::setw(9) << "machine" << std::setw(15)
       << "style" << std::setw(8) << "cell" << std::right
       << std::setw(9) << "model" << std::setw(9) << "sim"
       << std::setw(9) << "err%"
       << "\n";
    for (const ValidationCell &cell : report.cells) {
        os << std::left << std::setw(9) << cell.machineName
           << std::setw(15) << cell.style << std::setw(8)
           << (cell.x + "Q" + cell.y) << std::right << std::fixed
           << std::setprecision(1) << std::setw(9) << cell.modelMBps
           << std::setw(9) << cell.simMBps << std::showpos
           << std::setw(9) << cell.errorPct << std::noshowpos
           << (cell.pass ? "" : "  FAIL") << "\n";
    }
    os << (report.allPass ? "PASS" : "FAIL") << ": "
       << report.cells.size() << " cells, worst |error| "
       << std::fixed << std::setprecision(1) << report.worstAbsErrPct
       << "%\n";
    return os.str();
}

std::string
validationJson(const ValidationReport &report)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(3);
    os << "{\n";
    os << "  \"words\": " << report.options.words << ",\n";
    os << "  \"tolerance_pct\": " << report.options.tolerancePct
       << ",\n";
    os << "  \"worst_abs_error_pct\": " << report.worstAbsErrPct
       << ",\n";
    os << "  \"all_pass\": " << (report.allPass ? "true" : "false")
       << ",\n";
    os << "  \"cells\": [\n";
    for (std::size_t i = 0; i < report.cells.size(); ++i) {
        const ValidationCell &cell = report.cells[i];
        os << "    {\"machine\": \"" << cell.machineName
           << "\", \"style\": \"" << cell.style << "\", \"x\": \""
           << cell.x << "\", \"y\": \"" << cell.y
           << "\", \"formula\": \"" << cell.formula
           << "\", \"model_mbps\": " << cell.modelMBps
           << ", \"sim_mbps\": " << cell.simMBps
           << ", \"error_pct\": " << cell.errorPct
           << ", \"pass\": " << (cell.pass ? "true" : "false")
           << "}" << (i + 1 < report.cells.size() ? "," : "")
           << "\n";
    }
    os << "  ]\n";
    os << "}\n";
    return os.str();
}

} // namespace ct::rt
