/**
 * @file
 * Composition AST for user-written formulas (paper §3.3), the tree
 * the parser builds for `ctplan eval` and `explain`.
 *
 * A communication operation is written as a tree of basic transfers
 * combined with the two concatenation operators:
 *
 *  - sequential `o` (shared resource; pipelined, throughputs combine
 *    as a reciprocal sum), and
 *  - parallel `||` (disjoint resources; throughput is the minimum).
 *
 * Example (buffer packing on the T3D):
 *
 *     xQy = xC1 o (1S0 || Nd || 0D1) o 1Cy
 *
 * The planner's own programs carry no tree: a TransferProgram's stage
 * list is its only view, and its formula is derived from the stages
 * (transfer_program.h).
 */

#ifndef CT_CORE_EXPR_H
#define CT_CORE_EXPR_H

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/basic_transfer.h"

namespace ct::core {

class TransferExpr;

/** Shared immutable expression node. */
using ExprPtr = std::shared_ptr<const TransferExpr>;

/** Node type of a TransferExpr. */
enum class ExprKind {
    Leaf, ///< one basic transfer
    Seq,  ///< sequential composition `o`
    Par,  ///< parallel composition `||`
};

/**
 * Immutable expression tree node.
 *
 * For Seq/Par nodes, children are ordered in data-flow order from the
 * sender's memory towards the receiver's memory. The composite read
 * pattern of a node is the read pattern of its first child that
 * touches memory; the composite write pattern comes from the last
 * such child. A leaf network transfer may carry a congestion override
 * (otherwise the evaluation context supplies one).
 */
class TransferExpr
{
  public:
    /** Build a leaf node. */
    static ExprPtr leaf(BasicTransfer t);

    /** Build a leaf network node with an explicit congestion factor. */
    static ExprPtr leaf(BasicTransfer t, double congestion);

    /** Sequential composition of two or more parts. */
    static ExprPtr seq(std::vector<ExprPtr> parts);

    /** Parallel composition of two or more parts. */
    static ExprPtr par(std::vector<ExprPtr> parts);

    ExprKind kind() const { return kindValue; }

    /** Basic transfer of a Leaf node; fatal on inner nodes. */
    const BasicTransfer &transfer() const;

    /** Explicit congestion override of a Leaf, if any. */
    std::optional<double> congestionOverride() const
    {
        return congestion;
    }

    /** Children of a Seq/Par node; empty for leaves. */
    std::span<const ExprPtr> children() const { return parts; }

    /**
     * End-to-end read pattern: how the composite reads the source
     * memory. Nullopt if no component reads memory.
     */
    std::optional<AccessPattern> readPattern() const;

    /** End-to-end write pattern into the destination memory. */
    std::optional<AccessPattern> writePattern() const;

    /**
     * Check the pattern-matching rule for sequential composition: the
     * write pattern of each stage must match the read pattern of the
     * next stage that touches memory. Buffer handoffs through pattern
     * `1` blocks are the canonical legal case. Returns an error
     * message, or nullopt when the expression is well formed.
     */
    std::optional<std::string> validate() const;

    /** Formula rendering, e.g. "1C64 o (1S0 || Nd || 0D1)". */
    std::string format() const;

  private:
    /** Lets only the builders construct nodes, through make_shared
     *  (one allocation for the node and its reference count). */
    struct Private
    {};

  public:
    explicit TransferExpr(Private) {}

  private:
    static std::shared_ptr<TransferExpr> node(ExprKind kind);
    static ExprPtr compose(ExprKind kind, std::vector<ExprPtr> parts);

    std::string formatInner(bool parenthesize) const;

    ExprKind kindValue = ExprKind::Leaf;
    BasicTransfer leafTransfer;
    std::optional<double> congestion;
    std::vector<ExprPtr> parts;
};

} // namespace ct::core

#endif // CT_CORE_EXPR_H
