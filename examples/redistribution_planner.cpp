/**
 * @file
 * The compiler view end to end (paper §2.1): an HPF array
 * redistribution A(CYCLIC) = B(BLOCK) is analyzed into its induced
 * access patterns, the planner picks the fastest implementation for
 * each machine, and the simulated machine executes the winning and
 * losing strategies to check the prediction.
 *
 * Build and run:  ./examples/redistribution_planner
 */

#include <cstdio>

#include "core/planner.h"
#include "rt/chained_layer.h"
#include "rt/packing_layer.h"
#include "rt/redistribute.h"
#include "sim/report.h"

namespace {

using namespace ct;
using D = core::Distribution;

void
analyze(core::MachineId machine_id, const D &from, const D &to)
{
    sim::MachineConfig cfg = sim::configFor(machine_id);
    sim::Machine machine(cfg);
    auto w = rt::RedistributionWorkload::create(machine, from, to);
    auto [x, y] = w.dominantPatterns();

    std::printf("%s = %s on the %s\n", to.name().c_str(),
                from.name().c_str(), cfg.name.c_str());
    std::printf("  induced operation: %sQ%s  (%zu flows, %llu words "
                "total)\n",
                x.label().c_str(), y.label().c_str(),
                w.op().flows.size(),
                static_cast<unsigned long long>(
                    w.op().totalBytes() / 8));

    // Ask the copy-transfer model which implementation wins.
    core::PlanQuery query{machine_id, x, y, 0.0};
    auto plans = core::plan(query);
    std::printf("%s", core::formatPlan(query, plans).c_str());

    // Execute the two main styles and compare with the prediction.
    auto run = [&](rt::MessageLayer &layer) {
        sim::Machine m(cfg);
        auto wl = rt::RedistributionWorkload::create(m, from, to);
        wl.fillInput(m);
        auto r = layer.run(m, wl.op());
        if (wl.verify(m) != 0)
            std::fprintf(stderr, "  CORRUPTED DELIVERY\n");
        return r.perNodeMBps(m);
    };
    rt::ChainedLayer chained;
    rt::PackingLayer packing;
    double c = run(chained);
    double p = run(packing);
    std::printf("  simulated: chained %.1f MB/s, buffer-packing %.1f "
                "MB/s -> %s wins (model agrees: %s)\n\n",
                c, p, c > p ? "chained" : "packing",
                (plans.front().program.style ==
                 core::Style::Chained) == (c > p)
                    ? "yes"
                    : "no");
}

} // namespace

int
main()
{
    constexpr std::uint64_t n = 1 << 14;
    constexpr int p = 8;

    analyze(core::MachineId::T3d, D::block(n, p), D::cyclic(n, p));
    analyze(core::MachineId::T3d, D::blockCyclic(n, p, 4),
            D::block(n, p));
    analyze(core::MachineId::Paragon, D::cyclic(n, p),
            D::block(n, p));

    // Show the machine counters of one run, to see *why*.
    std::printf("-- counters of the BLOCK -> CYCLIC chained run --\n");
    sim::Machine m(sim::t3dConfig());
    auto w = rt::RedistributionWorkload::create(
        m, D::block(n, 8), D::cyclic(n, 8));
    w.fillInput(m);
    rt::ChainedLayer layer;
    layer.run(m, w.op());
    std::printf("%s", sim::formatReport(sim::collectReport(m)).c_str());
    return 0;
}
