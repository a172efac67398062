#include "expr.h"

#include <algorithm>
#include <sstream>

#include "util/logging.h"

namespace ct::core {

struct TransferExpr::LeafSlot
{
    TransferExpr node{Private{}};
};

std::shared_ptr<TransferExpr>
TransferExpr::node(ExprKind kind)
{
    auto n = std::make_shared<TransferExpr>(Private{});
    n->kindValue = kind;
    return n;
}

ExprPtr
TransferExpr::leaf(BasicTransfer t)
{
    auto n = node(ExprKind::Leaf);
    n->leafTransfer = t;
    return n;
}

ExprPtr
TransferExpr::leaf(BasicTransfer t, double congestion)
{
    if (!isNetworkOp(t.op))
        util::fatal("TransferExpr::leaf: congestion override on ",
                    t.name());
    if (congestion < 1.0)
        util::fatal("TransferExpr::leaf: congestion < 1");
    auto n = node(ExprKind::Leaf);
    n->leafTransfer = t;
    n->congestion = congestion;
    return n;
}

std::shared_ptr<TransferExpr>
TransferExpr::composite(ExprKind kind, std::size_t count)
{
    if (count < 2)
        util::fatal("TransferExpr::",
                    kind == ExprKind::Seq ? "seq" : "par",
                    ": needs >= 2 parts");
    auto n = node(kind);
    n->partCount = count;
    if (count > kInlineParts)
        n->moreParts.resize(count);
    return n;
}

ExprPtr
TransferExpr::compose(ExprKind kind, std::span<const ExprPtr> parts)
{
    auto n = composite(kind, parts.size());
    ExprPtr *out = n->partCount > kInlineParts ? n->moreParts.data()
                                                : n->inlineParts.data();
    for (const ExprPtr &p : parts) {
        if (!p)
            util::fatal("TransferExpr::",
                        kind == ExprKind::Seq ? "seq" : "par",
                        ": null child");
        *out++ = p;
    }
    return n;
}

ExprPtr
TransferExpr::compose(ExprKind kind, std::initializer_list<Part> parts)
{
    auto n = composite(kind, parts.size());
    std::size_t leaves = 0;
    for (const Part &p : parts)
        leaves += p.isLeaf;
    std::shared_ptr<LeafSlot[]> block;
    if (leaves > 0)
        block = std::make_shared<LeafSlot[]>(leaves);
    ExprPtr *out = n->partCount > kInlineParts ? n->moreParts.data()
                                                : n->inlineParts.data();
    std::size_t next = 0;
    for (const Part &p : parts) {
        if (p.isLeaf) {
            TransferExpr &leaf = block[next++].node;
            leaf.leafTransfer = p.transfer;
            *out++ = ExprPtr(block, &leaf);
            continue;
        }
        if (!p.expr)
            util::fatal("TransferExpr::",
                        kind == ExprKind::Seq ? "seq" : "par",
                        ": null child");
        *out++ = p.expr;
    }
    return n;
}

ExprPtr
TransferExpr::seq(std::span<const ExprPtr> parts)
{
    return compose(ExprKind::Seq, parts);
}

ExprPtr
TransferExpr::seq(std::initializer_list<Part> parts)
{
    return compose(ExprKind::Seq, parts);
}

ExprPtr
TransferExpr::seq(ExprPtr a, ExprPtr b)
{
    const ExprPtr parts[] = {std::move(a), std::move(b)};
    return compose(ExprKind::Seq, parts);
}

ExprPtr
TransferExpr::seq(ExprPtr a, ExprPtr b, ExprPtr c)
{
    const ExprPtr parts[] = {std::move(a), std::move(b), std::move(c)};
    return compose(ExprKind::Seq, parts);
}

ExprPtr
TransferExpr::par(std::span<const ExprPtr> parts)
{
    return compose(ExprKind::Par, parts);
}

ExprPtr
TransferExpr::par(std::initializer_list<Part> parts)
{
    return compose(ExprKind::Par, parts);
}

ExprPtr
TransferExpr::par(ExprPtr a, ExprPtr b)
{
    const ExprPtr parts[] = {std::move(a), std::move(b)};
    return compose(ExprKind::Par, parts);
}

ExprPtr
TransferExpr::par(ExprPtr a, ExprPtr b, ExprPtr c)
{
    const ExprPtr parts[] = {std::move(a), std::move(b), std::move(c)};
    return compose(ExprKind::Par, parts);
}

const BasicTransfer &
TransferExpr::transfer() const
{
    if (kindValue != ExprKind::Leaf)
        util::fatal("TransferExpr::transfer: not a leaf");
    return leafTransfer;
}

std::optional<AccessPattern>
TransferExpr::readPattern() const
{
    if (kindValue == ExprKind::Leaf) {
        if (leafTransfer.read.touchesMemory())
            return leafTransfer.read;
        return std::nullopt;
    }
    for (const auto &child : children())
        if (auto p = child->readPattern())
            return p;
    return std::nullopt;
}

std::optional<AccessPattern>
TransferExpr::writePattern() const
{
    if (kindValue == ExprKind::Leaf) {
        if (leafTransfer.write.touchesMemory())
            return leafTransfer.write;
        return std::nullopt;
    }
    std::span<const ExprPtr> parts = children();
    for (auto it = parts.rbegin(); it != parts.rend(); ++it)
        if (auto p = (*it)->writePattern())
            return p;
    return std::nullopt;
}

std::optional<std::string>
TransferExpr::validate() const
{
    if (kindValue == ExprKind::Leaf)
        return std::nullopt;

    std::span<const ExprPtr> parts = children();
    for (const auto &child : parts)
        if (auto err = child->validate())
            return err;

    if (kindValue == ExprKind::Seq) {
        // Enforce the handoff rule between consecutive stages that
        // both touch memory: stage i's write pattern must equal stage
        // i+1's read pattern.
        for (std::size_t i = 0; i + 1 < parts.size(); ++i) {
            auto w = parts[i]->writePattern();
            auto r = parts[i + 1]->readPattern();
            if (w && r && !(*w == *r)) {
                return "pattern mismatch between '" +
                       parts[i]->format() + "' (writes " + w->label() +
                       ") and '" + parts[i + 1]->format() +
                       "' (reads " + r->label() + ")";
            }
        }
    }
    return std::nullopt;
}

std::string
TransferExpr::formatInner(bool parenthesize) const
{
    if (kindValue == ExprKind::Leaf) {
        std::string s = leafTransfer.name();
        if (congestion) {
            std::ostringstream os;
            os << s << "@" << *congestion;
            return os.str();
        }
        return s;
    }
    const char *sep = kindValue == ExprKind::Seq ? " o " : " || ";
    std::span<const ExprPtr> parts = children();
    std::string body;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        if (i > 0)
            body += sep;
        body += parts[i]->formatInner(true);
    }
    if (parenthesize)
        return "(" + body + ")";
    return body;
}

std::string
TransferExpr::format() const
{
    return formatInner(false);
}

} // namespace ct::core
