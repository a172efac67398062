#include "expr.h"

#include <algorithm>
#include <sstream>

#include "util/logging.h"

namespace ct::core {

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

ExprPtr
TransferExpr::compose(ExprKind kind, std::vector<ExprPtr> parts)
{
    const char *op = kind == ExprKind::Seq ? "seq" : "par";
    if (parts.size() < 2)
        util::fatal("TransferExpr::", op, ": needs >= 2 parts");
    for (const ExprPtr &p : parts)
        if (!p)
            util::fatal("TransferExpr::", op, ": null child");
    auto n = node(kind);
    n->parts = std::move(parts);
    return n;
}

ExprPtr
TransferExpr::seq(std::vector<ExprPtr> parts)
{
    return compose(ExprKind::Seq, std::move(parts));
}

ExprPtr
TransferExpr::par(std::vector<ExprPtr> parts)
{
    return compose(ExprKind::Par, std::move(parts));
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
