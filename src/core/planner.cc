#include "planner.h"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <string_view>

#include "core/analytic_backend.h"
#include "core/style_registry.h"
#include "util/logging.h"

namespace ct::core {

namespace {

/**
 * Sort @p candidates fastest first by @p rate, ties in their current
 * order: what std::stable_sort does, without the temporary buffer it
 * allocates. Insertion sort, since there is one candidate per style.
 */
template <typename T, typename Rate>
void
sortFastestFirst(std::vector<T> &candidates, Rate rate)
{
    for (std::size_t i = 1; i < candidates.size(); ++i)
        for (std::size_t j = i;
             j > 0 && rate(candidates[j - 1]) < rate(candidates[j]); --j)
            std::swap(candidates[j - 1], candidates[j]);
}

} // namespace

std::vector<PlannedStrategy>
plan(const PlanQuery &query)
{
    const AnalyticBackend &backend = paperBackend(query.machine);
    const MachineCaps &caps = paperCaps(query.machine);
    double congestion = query.congestion > 0.0 ? query.congestion
                                               : caps.defaultCongestion;

    const std::vector<StyleInfo> &styles = styleRegistry();
    std::vector<PlannedStrategy> result;
    result.reserve(styles.size());
    for (const StyleInfo &info : styles) {
        auto program =
            buildProgram(info, query.machine, query.read, query.write);
        if (!program)
            continue;
        auto model = backend.costModel(*program, congestion);
        if (!model)
            continue;
        result.push_back(
            {std::move(*program), model->asymptotic(), *model});
    }
    if (result.empty())
        util::panic("plan: no legal strategy for ",
                    query.read.label(), "Q", query.write.label(),
                    " on ", caps.name);

    sortFastestFirst(result,
                     [](const PlannedStrategy &p) { return p.estimate; });
    return result;
}

PlannedStrategy
bestPlan(const PlanQuery &query)
{
    std::vector<PlannedStrategy> plans = plan(query);
    return std::move(plans.front());
}

std::vector<SizedPlan>
planForSize(const std::vector<PlannedStrategy> &plans,
            util::Bytes message_bytes)
{
    // Back in registry order first, which the stable sort then keeps
    // for ties.
    std::vector<SizedPlan> result;
    result.reserve(plans.size());
    for (const StyleInfo &info : styleRegistry())
        for (const PlannedStrategy &p : plans)
            if (p.program.styleKey == info.key)
                result.push_back({p.program.style, info.key,
                                  p.model.throughputAt(message_bytes),
                                  p.model});
    sortFastestFirst(result,
                     [](const SizedPlan &p) { return p.effective; });
    return result;
}

std::vector<SizedPlan>
planForSize(MachineId machine, AccessPattern x, AccessPattern y,
            util::Bytes message_bytes)
{
    return planForSize(plan(PlanQuery{machine, x, y, 0.0}),
                       message_bytes);
}

std::string
canonicalQueryKey(const char *op, MachineId machine,
                  const AccessPattern &x, const AccessPattern &y,
                  std::uint64_t words, util::Bytes bytes,
                  std::uint64_t budget,
                  const std::string &canonical_faults,
                  const std::string &canonical_chaos)
{
    auto orNone = [](const std::string &spec) {
        return spec.empty() ? std::string_view("none")
                            : std::string_view(spec);
    };
    std::string key;
    key.reserve(96);
    key.append(op).append("|").append(machineName(machine)).append("|")
        .append(x.label()).append("Q").append(y.label())
        .append("|words=").append(std::to_string(words))
        .append("|bytes=").append(std::to_string(bytes))
        .append("|budget=").append(std::to_string(budget))
        .append("|faults=").append(orNone(canonical_faults))
        .append("|chaos=").append(orNone(canonical_chaos));
    return key;
}

std::string
formatPlan(const PlanQuery &query,
           const std::vector<PlannedStrategy> &plans)
{
    const MachineCaps &caps = paperCaps(query.machine);
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
