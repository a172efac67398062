/**
 * @file
 * Automatic cross-validation of the two TransferProgram backends:
 * every machine x style x legal pattern-pair cell is built ONCE as a
 * TransferProgram, rated by the analytic backend's execution-aware
 * predictor (against the simulator-measured basic-transfer table,
 * exactly as the paper feeds measured figures into the model), and
 * executed by the simulation backend. The per-cell relative error is
 * the regression gate: the model must stay within the tolerance the
 * paper claims for the copy-transfer approach (DESIGN.md §9 pins it
 * at 15%).
 */

#ifndef CT_RT_VALIDATION_H
#define CT_RT_VALIDATION_H

#include <string>
#include <vector>

#include "core/machine_params.h"
#include "util/units.h"

namespace ct::rt {

/** Cross-validation knobs. */
struct ValidationOptions
{
    /** Elements per cell (64 KB messages, past every half-power
     *  point but small enough to keep the sweep fast). */
    std::uint64_t words = 1 << 14;
    /** Per-cell |model - sim| / sim gate, in percent. */
    double tolerancePct = 15.0;
    /**
     * Sweep-farm workers running both machines' measurement
     * campaigns and then the cells (0 = serial inline, no thread
     * spawned). Every measurement and every cell builds its own
     * simulator state, so the report is byte-identical for every
     * thread count (DESIGN.md §14).
     */
    int threads = 0;
};

/** One machine x style x pattern-pair comparison. */
struct ValidationCell
{
    core::MachineId machine = core::MachineId::T3d;
    std::string machineName;
    /** Style registry key, e.g. "chained". */
    std::string style;
    std::string x, y;
    std::string formula;
    util::MBps modelMBps = 0.0;
    util::MBps simMBps = 0.0;
    /** (model - sim) / sim, in percent. */
    double errorPct = 0.0;
    bool pass = false;
};

/** Result of one full sweep. */
struct ValidationReport
{
    ValidationOptions options;
    std::vector<ValidationCell> cells;
    double worstAbsErrPct = 0.0;
    bool allPass = true;
};

/**
 * Run the sweep: both machines, every registered style, the full
 * {contiguous, stride-16, stride-64, indexed}^2 pattern grid,
 * skipping cells the machine cannot execute. Each legal cell goes
 * through both backends from one shared TransferProgram.
 */
ValidationReport crossValidate(ValidationOptions options = {});

/** Text table of a report (one row per cell plus a verdict line). */
std::string formatValidation(const ValidationReport &report);

/** JSON rendering of a report, for tools and CI artifacts. */
std::string validationJson(const ValidationReport &report);

} // namespace ct::rt

#endif // CT_RT_VALIDATION_H
