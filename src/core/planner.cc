#include "planner.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "core/analytic_backend.h"
#include "core/style_registry.h"
#include "util/logging.h"

namespace ct::core {

std::vector<PlannedStrategy>
plan(const PlanQuery &query)
{
    AnalyticBackend backend = paperBackend(query.machine);
    MachineCaps caps = paperCaps(query.machine);
    double congestion = query.congestion > 0.0 ? query.congestion
                                               : caps.defaultCongestion;

    std::vector<PlannedStrategy> result;
    for (const StyleInfo &info : styleRegistry()) {
        auto program = buildProgram(query.machine, info.key,
                                    query.read, query.write);
        if (!program)
            continue;
        auto rate = backend.rate(*program, congestion);
        if (!rate)
            continue;
        result.push_back({std::move(*program), *rate});
    }
    if (result.empty())
        util::panic("plan: no legal strategy for ",
                    query.read.label(), "Q", query.write.label(),
                    " on ", caps.name);

    std::stable_sort(result.begin(), result.end(),
                     [](const PlannedStrategy &a,
                        const PlannedStrategy &b) {
                         return a.estimate > b.estimate;
                     });
    return result;
}

PlannedStrategy
bestPlan(const PlanQuery &query)
{
    return plan(query).front();
}

std::vector<SizedPlan>
planForSize(MachineId machine, AccessPattern x, AccessPattern y,
            util::Bytes message_bytes)
{
    AnalyticBackend backend = paperBackend(machine);
    double congestion = paperCaps(machine).defaultCongestion;
    std::vector<SizedPlan> result;
    for (const StyleInfo &info : styleRegistry()) {
        auto program = buildProgram(machine, info.key, x, y);
        if (!program)
            continue;
        auto model = backend.costModel(*program, congestion);
        if (!model)
            continue;
        result.push_back({program->style, info.key,
                          model->throughputAt(message_bytes), *model});
    }
    std::stable_sort(result.begin(), result.end(),
                     [](const SizedPlan &a, const SizedPlan &b) {
                         return a.effective > b.effective;
                     });
    return result;
}

util::Bytes
styleCrossoverBytes(MachineId machine, AccessPattern x,
                    AccessPattern y, Style a, Style b)
{
    // The models do not depend on the message size.
    std::vector<SizedPlan> plans = planForSize(machine, x, y, 0);
    auto model = [&](Style style) -> const MessageCostModel & {
        for (const SizedPlan &p : plans)
            if (p.style == style)
                return p.model;
        util::fatal("styleCrossoverBytes: style unavailable");
    };
    const MessageCostModel &ma = model(a);
    const MessageCostModel &mb = model(b);
    // Effective rates are monotone; they cross at most once. Solve
    // secondsFor equality by bisection over a generous range.
    auto diff = [&](double n) {
        return ma.throughputAt(static_cast<util::Bytes>(n)) -
               mb.throughputAt(static_cast<util::Bytes>(n));
    };
    double lo = 8.0, hi = 1e9;
    if (diff(lo) * diff(hi) > 0.0)
        return 0; // one style dominates everywhere
    for (int it = 0; it < 200; ++it) {
        double mid = (lo + hi) / 2.0;
        if (diff(lo) * diff(mid) <= 0.0)
            hi = mid;
        else
            lo = mid;
    }
    return static_cast<util::Bytes>((lo + hi) / 2.0);
}

std::string
canonicalQueryKey(const char *op, MachineId machine,
                  const AccessPattern &x, const AccessPattern &y,
                  std::uint64_t words, util::Bytes bytes,
                  std::uint64_t budget,
                  const std::string &canonical_faults,
                  const std::string &canonical_chaos)
{
    std::ostringstream os;
    os << op << '|' << machineName(machine) << '|' << x.label() << 'Q'
       << y.label() << "|words=" << words << "|bytes=" << bytes
       << "|budget=" << budget << "|faults="
       << (canonical_faults.empty() ? "none" : canonical_faults)
       << "|chaos="
       << (canonical_chaos.empty() ? "none" : canonical_chaos);
    return os.str();
}

std::string
formatPlan(const PlanQuery &query,
           const std::vector<PlannedStrategy> &plans)
{
    MachineCaps caps = paperCaps(query.machine);
    std::ostringstream os;
    os << query.read.label() << "Q" << query.write.label() << " on "
       << caps.name << ":\n";
    for (const auto &p : plans) {
        os << "  " << std::left << std::setw(15) << p.program.styleKey
           << std::right << std::fixed << std::setprecision(1)
           << std::setw(6) << p.estimate << " MB/s   "
           << p.program.format() << "\n";
    }
    return os.str();
}

} // namespace ct::core
