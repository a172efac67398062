/**
 * @file
 * Sweep grids: canonical cell descriptors for the parameter sweeps
 * every figure/table reproduction walks (machine x style x pattern
 * pair x words x fault spec), plus the thread-confined cell runner
 * the Farm fans them across.
 *
 * The grid is expanded to a cell list BEFORE any cell runs: illegal
 * (machine, style, pattern) combinations are filtered during
 * expansion by building their TransferProgram once, so the cell list
 * -- and with it every merged summary -- is a pure function of the
 * grid, never of the schedule. Cell ids are canonical
 * ("t3d/chained/1Q16/w16384", "paragon/copy/64C1/w32768") and double
 * as summary row keys.
 *
 * Every cell is thread-confined by construction: runCell() builds
 * its own MachineConfig, SimBackend (and with it Machine, EventQueue,
 * FaultInjector, metrics registry) and AnalyticBackend, shares
 * nothing mutable, and returns plain values (DESIGN.md §14).
 */

#ifndef CT_SWEEP_GRID_H
#define CT_SWEEP_GRID_H

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/machine_params.h"
#include "core/pattern.h"
#include "sim/fault.h"
#include "sweep/farm.h"

namespace ct::sweep {

/** What a cell executes. */
enum class CellKind
{
    /** Pairwise exchange xQy of one style through the sim backend. */
    Exchange,
    /** Local memory-to-memory copy xCy (the fig4/tab1 measurement). */
    Copy,
};

/** One fully-specified sweep cell. */
struct CellSpec
{
    CellKind kind = CellKind::Exchange;
    core::MachineId machine = core::MachineId::T3d;
    /** Style registry key; unused for Copy cells. */
    std::string style;
    core::AccessPattern x, y;
    std::uint64_t words = 1 << 14;
    /**
     * Machine size for scale cells: 0 runs the machine's default
     * dims; a power of two in [8, 8192] rebuilds the topology at
     * that node count (sim::dimsForNodes). Exchange cells only.
     * Cells above kScaleSimNodes answer from the analytic backend
     * alone (simMBps stays 0) so an 8192-node cell costs
     * microseconds, not a machine.
     */
    int nodes = 0;
    sim::FaultSpec faults;
    /** Canonical id, e.g. "t3d/chained/1Q16/w16384[/nN][/drop=...]". */
    std::string id;
};

/** Largest scale cell that still cross-validates through the sim. */
inline constexpr int kScaleSimNodes = 256;

/** One cell's merged outcome (plain values only). */
struct CellResult
{
    std::string id;
    /** 0 for Copy cells and analytic-only scale cells. */
    double simMBps = 0.0;
    /** Analytic-model rate; 0 for Copy cells (no model column). */
    double modelMBps = 0.0;
    std::uint64_t makespanCycles = 0;
    std::uint64_t corruptWords = 0;
    /** Words lost to a dead endpoint, not counted as corrupt. */
    std::uint64_t lostWords = 0;
    /** Analyzed congestion of the cell's pair-exchange pattern on
     *  the scaled topology; 0 for non-scale cells. */
    double congestion = 0.0;
};

/**
 * Grid builder: dimensions multiply machine-major, then style, then
 * pattern pair, then words, then faults -- the canonical cell order.
 * pairs() overrides the xs() x ys() cross product when a sweep needs
 * an explicit pattern-pair list (the fig4 stride sweep pairs every
 * stride with the contiguous pattern instead of squaring the list).
 */
class Grid
{
  public:
    Grid &kind(CellKind k);
    Grid &machines(std::vector<core::MachineId> ms);
    Grid &styles(std::vector<std::string> keys);
    Grid &xs(std::vector<core::AccessPattern> patterns);
    Grid &ys(std::vector<core::AccessPattern> patterns);
    Grid &pairs(
        std::vector<std::pair<core::AccessPattern,
                              core::AccessPattern>> pattern_pairs);
    Grid &words(std::vector<std::uint64_t> counts);
    /** Machine sizes (CellSpec::nodes); exchange cells only. */
    Grid &nodes(std::vector<int> counts);
    Grid &faults(std::vector<sim::FaultSpec> specs);

    /**
     * Expand to the canonical cell list. Exchange cells whose
     * (machine, style, x, y) has no TransferProgram are skipped, so
     * the list only names runnable cells.
     */
    std::vector<CellSpec> cells() const;

    /**
     * Parse a grid spec. Two forms:
     *  - a preset name: "fig4" (the stride sweep over local copies),
     *    "faultsweep" (chained vs packing under rising drop rates)
     *    or "nodes:LO..HI" (the scale sweep: chained exchange on
     *    both machines at every power-of-two node count from LO to
     *    HI, 8 <= LO <= HI <= 8192);
     *  - a dimension list "key=v[,v...];key=..." with keys kind
     *    (exchange|copy), machine (t3d,paragon), style (registry
     *    keys or "all"), x / y (pattern labels: 1, 16, w, ...),
     *    words (element counts), nodes (power-of-two machine sizes,
     *    exchange cells only) and faults (FaultSpec strings
     *    separated by '|'; "none" = fault-free).
     * Unknown keys, duplicate keys, empty or malformed values are an
     * error with the offending token named in @p error, and so is an
     * exchange cell whose simulated buffers cannot fit a node's RAM
     * (rt::exchangeFitError).
     */
    static std::optional<Grid> parse(const std::string &spec,
                                     std::string *error);

  private:
    CellKind kindValue = CellKind::Exchange;
    std::vector<core::MachineId> machineList;
    std::vector<std::string> styleList; ///< empty = all registered
    std::vector<core::AccessPattern> xList, yList;
    std::vector<std::pair<core::AccessPattern, core::AccessPattern>>
        pairList; ///< overrides xList x yList when non-empty
    std::vector<std::uint64_t> wordList;
    std::vector<int> nodeList; ///< empty = default dims only
    std::vector<sim::FaultSpec> faultList; ///< empty = one clean run
};

/**
 * Run one cell to completion on the calling thread. Pure function of
 * the spec: builds every piece of simulator state privately.
 */
CellResult runCell(const CellSpec &spec);

/**
 * Expand @p grid and fan the cells across @p farm; results come back
 * merged in canonical cell order regardless of thread count.
 */
std::vector<CellResult> runGrid(const Grid &grid, Farm &farm);

/** Text table of merged results (canonical order). */
std::string formatResults(const std::vector<CellResult> &results);

/**
 * JSON rendering of merged results. Doubles are printed with
 * round-trip precision so equal sweeps produce byte-identical files
 * (the CI determinism gate cmp()s a 1-thread vs N-thread run).
 */
std::string resultsJson(const std::vector<CellResult> &results);

} // namespace ct::sweep

#endif // CT_SWEEP_GRID_H
