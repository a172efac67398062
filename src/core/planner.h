/**
 * @file
 * The compiler-facing planner (paper §5): enumerate every legal way to
 * implement a remote memory copy xQy on a machine, rate each with the
 * copy-transfer model (core::paperBackend()), and rank them.
 */

#ifndef CT_CORE_PLANNER_H
#define CT_CORE_PLANNER_H

#include <string>
#include <vector>

#include "core/latency_model.h"
#include "core/transfer_program.h"

namespace ct::core {

/** One rated candidate implementation. */
struct PlannedStrategy
{
    TransferProgram program;
    /** Steady-state rate at the query's congestion. */
    util::MBps estimate = 0.0;
    /** The latency-extended model built from that same rate, so
     *  model.asymptotic() == estimate. */
    MessageCostModel model;
};

/** Inputs of a planning query. */
struct PlanQuery
{
    MachineId machine = MachineId::T3d;
    AccessPattern read;  ///< source access pattern x
    AccessPattern write; ///< destination access pattern y
    /** Congestion of the communication step; <= 0 uses the machine
     *  default (two for both studied machines, §4.3). */
    double congestion = 0.0;
};

/**
 * Enumerate, rate and sort (fastest first) all styles the machine can
 * execute for the queried xQy; ties keep registry order. Each style's
 * program is built and rated once. Never returns an empty vector:
 * buffer packing is always available.
 */
std::vector<PlannedStrategy> plan(const PlanQuery &query);

/** Shortcut for the fastest plan. */
PlannedStrategy bestPlan(const PlanQuery &query);

/** Multi-line report of a planning decision, for tools and examples. */
std::string formatPlan(const PlanQuery &query,
                       const std::vector<PlannedStrategy> &plans);

/** One style's effective rate at a given message size. */
struct SizedPlan
{
    Style style = Style::BufferPacking;
    /** Registry key, e.g. "chained" (disambiguates Custom styles). */
    std::string key;
    /** Effective throughput at the queried message size. */
    util::MBps effective = 0.0;
    /** The style's latency-extended model from the plan it re-ranks
     *  (at that plan's congestion): its asymptotic() rate and
     *  halfPowerPoint(). */
    MessageCostModel model;
};

/**
 * Size-aware planning via the latency-extended model: re-rank the
 * styles of one plan() pass by their *effective* throughput for
 * messages of @p message_bytes, at the congestion @p plans were rated
 * at. For small messages the ranking can differ from plan():
 * chained transfers pay a heavier synchronization charge, so below a
 * crossover size buffer packing wins even where the steady-state
 * model says otherwise (the §6.2 SOR situation). Ties keep registry
 * order; with @p message_bytes 0 every effective rate is 0, so the
 * styles come back in registry order.
 */
std::vector<SizedPlan> planForSize(const std::vector<PlannedStrategy> &plans,
                                   util::Bytes message_bytes);

/** Shortcut: planForSize() of plan() at the machine's default
 *  congestion. */
std::vector<SizedPlan> planForSize(MachineId machine, AccessPattern x,
                                   AccessPattern y,
                                   util::Bytes message_bytes);

/**
 * Canonical memoization key for a planning or simulation query.
 * Equivalent queries -- however their patterns, machine name or
 * fault/chaos specs were originally spelled -- must map to the same
 * key, so callers pass the *parsed* artifacts and this function
 * re-renders each through its canonical printer: the machine through
 * machineName(), the patterns through AccessPattern::label(), and
 * the fault/chaos specs through their summary() round-trip (the
 * caller renders those, since core does not depend on sim). The
 * deadline budget is part of the key because it shapes the answer: a
 * truncated response memoized under a budget-blind key would be
 * served to a client that asked for full fidelity. Fields are joined
 * in a fixed order with '|', e.g.
 *
 *   "sim|T3D|1Q64|words=4096|bytes=0|budget=0|faults=drop=0.02|chaos=none"
 *
 * The planning service CRC-stamps the cached payload separately; the
 * key itself carries no checksum.
 */
std::string canonicalQueryKey(const char *op, MachineId machine,
                              const AccessPattern &x,
                              const AccessPattern &y,
                              std::uint64_t words, util::Bytes bytes,
                              std::uint64_t budget,
                              const std::string &canonical_faults,
                              const std::string &canonical_chaos);

} // namespace ct::core

#endif // CT_CORE_PLANNER_H
