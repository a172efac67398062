/**
 * @file
 * Composition AST for communication operations (paper §3.3).
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
 */

#ifndef CT_CORE_EXPR_H
#define CT_CORE_EXPR_H

#include <array>
#include <initializer_list>
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

    /**
     * One part of a composition written as a list: a subtree, or a
     * basic transfer that becomes a leaf. The leaves a list names as
     * transfers share one allocation, so a style's program allocates
     * per composite node, not per leaf.
     */
    class Part
    {
      public:
        Part(ExprPtr subtree) : expr(std::move(subtree)) {}
        Part(const BasicTransfer &leaf) : transfer(leaf), isLeaf(true)
        {}

      private:
        friend class TransferExpr;
        ExprPtr expr;
        BasicTransfer transfer;
        bool isLeaf = false;
    };

    /** Sequential composition of two or more parts. */
    static ExprPtr seq(std::span<const ExprPtr> parts);
    static ExprPtr seq(std::initializer_list<Part> parts);
    static ExprPtr seq(ExprPtr a, ExprPtr b);
    static ExprPtr seq(ExprPtr a, ExprPtr b, ExprPtr c);

    /** Parallel composition of two or more parts. */
    static ExprPtr par(std::span<const ExprPtr> parts);
    static ExprPtr par(std::initializer_list<Part> parts);
    static ExprPtr par(ExprPtr a, ExprPtr b);
    static ExprPtr par(ExprPtr a, ExprPtr b, ExprPtr c);

    ExprKind kind() const { return kindValue; }

    /** Basic transfer of a Leaf node; fatal on inner nodes. */
    const BasicTransfer &transfer() const;

    /** Explicit congestion override of a Leaf, if any. */
    std::optional<double> congestionOverride() const
    {
        return congestion;
    }

    /** Children of a Seq/Par node; empty for leaves. */
    std::span<const ExprPtr> children() const
    {
        if (partCount > kInlineParts)
            return moreParts;
        return std::span<const ExprPtr>(inlineParts).first(partCount);
    }

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
    /** A leaf of a shared leaf block (see Part). */
    struct LeafSlot;

    static std::shared_ptr<TransferExpr> node(ExprKind kind);
    static ExprPtr compose(ExprKind kind, std::span<const ExprPtr> parts);
    static ExprPtr compose(ExprKind kind,
                           std::initializer_list<Part> parts);
    /** A composite node over @p count children, checked. */
    static std::shared_ptr<TransferExpr>
    composite(ExprKind kind, std::size_t count);

    std::string formatInner(bool parenthesize) const;

    /** Children kept in the node itself: every style's nodes fit, so
     *  building a node is one allocation. */
    static constexpr std::size_t kInlineParts = 5;

    ExprKind kindValue = ExprKind::Leaf;
    BasicTransfer leafTransfer;
    std::optional<double> congestion;
    std::array<ExprPtr, kInlineParts> inlineParts;
    /** All children, when there are more than kInlineParts. */
    std::vector<ExprPtr> moreParts;
    std::size_t partCount = 0;
};

} // namespace ct::core

#endif // CT_CORE_EXPR_H
