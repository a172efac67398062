#include "algebra.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "util/logging.h"

namespace ct::core {

void
SequentialRule::add(util::MBps part)
{
    secondsPerMB += 1.0 / part;
    only = part;
    ++parts;
}

util::MBps
SequentialRule::rate() const
{
    if (parts == 0)
        util::panic("SequentialRule: no parts");
    return parts == 1 ? only : 1.0 / secondsPerMB;
}

void
ParallelRule::add(util::MBps part)
{
    slowest = parts == 0 ? part : std::min(slowest, part);
    ++parts;
}

util::MBps
ParallelRule::rate() const
{
    if (parts == 0)
        util::panic("ParallelRule: no parts");
    return slowest;
}

util::MBps
applyConstraints(util::MBps value,
                 std::span<const ResourceConstraint> constraints)
{
    for (const auto &c : constraints) {
        if (c.demandFactor <= 0.0 || c.limit <= 0.0)
            util::fatal("applyConstraints: bad constraint '", c.name,
                        "'");
        value = std::min(value, c.limit / c.demandFactor);
    }
    return value;
}

namespace {

std::optional<util::MBps>
evalNode(const TransferExpr &node, const EvalContext &ctx)
{
    switch (node.kind()) {
      case ExprKind::Leaf: {
        const BasicTransfer &t = node.transfer();
        if (isNetworkOp(t.op)) {
            double congestion =
                node.congestionOverride().value_or(ctx.congestion);
            return ctx.table->lookupNetwork(t.op, congestion);
        }
        return ctx.table->lookup(t);
      }
      case ExprKind::Seq: {
        SequentialRule seq;
        for (const auto &child : node.children()) {
            auto v = evalNode(*child, ctx);
            if (!v)
                return std::nullopt;
            seq.add(*v);
        }
        return seq.rate();
      }
      case ExprKind::Par: {
        ParallelRule par;
        for (const auto &child : node.children()) {
            auto v = evalNode(*child, ctx);
            if (!v)
                return std::nullopt;
            par.add(*v);
        }
        return par.rate();
      }
    }
    util::panic("evalNode: bad kind");
}

} // namespace

std::optional<util::MBps>
evaluate(const ExprPtr &expr, const EvalContext &ctx)
{
    if (!expr)
        util::fatal("evaluate: null expression");
    if (!ctx.table)
        util::fatal("evaluate: null throughput table");
    if (auto err = expr->validate())
        util::fatal("evaluate: ill-formed expression: ", *err);
    auto v = evalNode(*expr, ctx);
    if (!v)
        return std::nullopt;
    return applyConstraints(*v, ctx.constraints);
}

util::MBps
evaluateOrDie(const ExprPtr &expr, const EvalContext &ctx)
{
    auto v = evaluate(expr, ctx);
    if (!v)
        util::fatal("evaluateOrDie: '", expr->format(),
                    "' uses a transfer not implemented on ",
                    ctx.table->machineName());
    return *v;
}

namespace {

void
explainNode(const TransferExpr &node, const EvalContext &ctx,
            int depth, std::ostringstream &os)
{
    auto indent = std::string(static_cast<std::size_t>(depth) * 2, ' ');
    auto v = evalNode(node, ctx);
    std::string rate =
        v ? util::detail::concat(std::fixed, std::setprecision(1), *v,
                                 " MB/s")
          : std::string("unsupported");
    switch (node.kind()) {
      case ExprKind::Leaf:
        os << indent << node.transfer().name();
        if (auto c = node.congestionOverride())
            os << "@" << *c;
        os << " = " << rate << "\n";
        break;
      case ExprKind::Seq:
        os << indent << "sequential (reciprocal sum) = " << rate << "\n";
        for (const auto &child : node.children())
            explainNode(*child, ctx, depth + 1, os);
        break;
      case ExprKind::Par:
        os << indent << "parallel (minimum) = " << rate << "\n";
        for (const auto &child : node.children())
            explainNode(*child, ctx, depth + 1, os);
        break;
    }
}

} // namespace

std::string
explain(const ExprPtr &expr, const EvalContext &ctx)
{
    if (!expr || !ctx.table)
        util::fatal("explain: null expression or table");
    std::ostringstream os;
    os << expr->format() << "  [" << ctx.table->machineName()
       << ", congestion " << ctx.congestion << "]\n";
    explainNode(*expr, ctx, 1, os);
    auto raw = evalNode(*expr, ctx);
    if (raw && !ctx.constraints.empty()) {
        double final_value = applyConstraints(*raw, ctx.constraints);
        for (const auto &c : ctx.constraints) {
            os << "  constraint '" << c.name << "': " << c.demandFactor
               << "x demand <= " << c.limit << " MB/s\n";
        }
        os << "  constrained result = " << std::fixed
           << std::setprecision(1) << final_value << " MB/s\n";
    }
    return os.str();
}

} // namespace ct::core
