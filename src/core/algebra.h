/**
 * @file
 * Throughput evaluation rules of the copy-transfer model (paper §3.3):
 * parallel composition takes the minimum, sequential composition takes
 * the reciprocal sum, and resource constraints cap the result.
 */

#ifndef CT_CORE_ALGEBRA_H
#define CT_CORE_ALGEBRA_H

#include <optional>
#include <span>
#include <string>
#include <string_view>

#include "core/expr.h"

namespace ct::core {

/**
 * An aggregate resource bound, e.g. "every node sends and receives at
 * once, so 2x the operation throughput must fit in the memory-system
 * bandwidth": demandFactor 2, limit |0C1|.
 */
struct ResourceConstraint
{
    std::string_view name; ///< label used in reports (a literal)
    double demandFactor; ///< how many times the operation loads it
    util::MBps limit;    ///< available aggregate bandwidth
};

/** Everything needed to evaluate an expression on one machine. */
struct EvalContext
{
    const ThroughputTable *table = nullptr;
    /** Congestion assumed for network legs without an override. */
    double congestion = 2.0;
    /** Bounds applied to the result; a view, so rating a program
     *  does not copy its constraints. */
    std::span<const ResourceConstraint> constraints;
};

/**
 * The two composition rules of §3.3, fed one part at a time in
 * data-flow order. evaluate() applies them to a formula's nodes and
 * AnalyticBackend::rate() to a program's stages, so each rule exists
 * once.
 *
 * Sequential parts share a resource and pipeline, so their seconds
 * per MB add: the rate is 1 / sum(1/part). A lone part keeps its own
 * rate.
 */
class SequentialRule
{
  public:
    void add(util::MBps part);
    /** The composite rate; needs at least one part. */
    util::MBps rate() const;

  private:
    double secondsPerMB = 0.0;
    util::MBps only = 0.0;
    int parts = 0;
};

/** Parallel parts run on disjoint resources: the slowest sets the
 *  rate. */
class ParallelRule
{
  public:
    void add(util::MBps part);
    /** The composite rate; needs at least one part. */
    util::MBps rate() const;

  private:
    util::MBps slowest = 0.0;
    int parts = 0;
};

/**
 * Cap @p value by each resource bound; fatal on a bound with a
 * non-positive demand or limit.
 */
util::MBps applyConstraints(util::MBps value,
                            std::span<const ResourceConstraint> constraints);

/**
 * Estimate the throughput of a communication operation.
 *
 * Returns nullopt when some basic transfer in the expression is not
 * implemented on the machine (no table entry), which the planner uses
 * to discard illegal strategies.
 */
std::optional<util::MBps> evaluate(const ExprPtr &expr,
                                   const EvalContext &ctx);

/** Like evaluate() but fatal() when the expression cannot be rated. */
util::MBps evaluateOrDie(const ExprPtr &expr, const EvalContext &ctx);

/**
 * Render a human-readable evaluation trace: one line per node with its
 * individual and composite throughputs, plus applied constraints.
 */
std::string explain(const ExprPtr &expr, const EvalContext &ctx);

} // namespace ct::core

#endif // CT_CORE_ALGEBRA_H
