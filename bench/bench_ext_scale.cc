/**
 * @file
 * Extension bench (not a paper table): the machine model at
 * thousands of nodes. Guards the active-set scaling contract
 * (DESIGN.md §16): congestion analysis, planning and transport
 * footprints grow with the *active* communication set, never with
 * machine capacity, so the analytic backend answers 8192-node
 * questions in microseconds while a bounded-footprint sim
 * cross-validates the sampled small cells.
 *
 * Three row families, all counters deterministic (baselined by the
 * perf gate):
 *
 *  - scale_congestion/<machine>/nodes/N: static link-load analysis
 *    of the pair-exchange pattern on the scaled topology. Baselines
 *    the congestion factor, the routed/unroutable split, and the
 *    touched-links count against the total link count -- the
 *    sparsity witness: touched stays a fraction of total as N grows.
 *  - scale_model/<machine>/nodes/N: analytic chained-1Q1 rate at the
 *    analyzed congestion (the large-N planning answer).
 *  - scale_xval/<machine>/nodes/64: the same cell through the full
 *    simulator (sweep::runCell), plus the reliable transport's
 *    active-channel count at 64 nodes -- 64 directed channels for 32
 *    pairs, not 64² slots.
 *
 * Wall-clock of the 8192-node analysis is archived as a wall_
 * counter (excluded from the summary: host-dependent, never gates).
 */

#include <chrono>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/analytic_backend.h"
#include "core/style_registry.h"
#include "rt/reliable_layer.h"
#include "sweep/grid.h"

namespace {

using namespace ct;
using namespace ct::bench;
using P = core::AccessPattern;

const int kScaleNodes[] = {64, 256, 1024, 4096, 8192};

const core::MachineId kMachines[] = {core::MachineId::T3d,
                                     core::MachineId::Paragon};

const char *
label(core::MachineId id)
{
    return id == core::MachineId::T3d ? "t3d" : "paragon";
}

void
congestionRow(benchmark::State &state, core::MachineId machine)
{
    int nodes = static_cast<int>(state.range(0));
    sim::Topology topo(sim::configFor(machine, nodes).topology);
    sim::CongestionReport report;
    double wall_us = 0.0;
    for (auto _ : state) {
        auto t0 = std::chrono::steady_clock::now();
        report = topo.analyzeCongestion(
            rt::pairExchangeDemands(nodes, 8192));
        wall_us = std::chrono::duration<double, std::micro>(
                      std::chrono::steady_clock::now() - t0)
                      .count();
    }
    setCounter(state, "link_count",
               static_cast<double>(topo.linkCount()));
    setCounter(state, "congestion", report.factor);
    setCounter(state, "routed", static_cast<double>(report.routed));
    setCounter(state, "unroutable",
               static_cast<double>(report.unroutable));
    setCounter(state, "touched_links",
               static_cast<double>(report.touchedLinks));
    state.counters["wall_analysis_us"] = wall_us;
}

void
modelRow(benchmark::State &state, core::MachineId machine)
{
    int nodes = static_cast<int>(state.range(0));
    sim::MachineConfig cfg = sim::configFor(machine, nodes);
    sim::Topology topo(cfg.topology);
    sim::CongestionReport report = topo.analyzeCongestion(
        rt::pairExchangeDemands(nodes, 8192));
    auto program = core::buildProgram(
        machine, "chained", P::contiguous(), P::contiguous());
    double model = 0.0;
    for (auto _ : state) {
        core::AnalyticBackend analytic(
            core::paperTable(machine),
            rt::executionProfileFor(cfg));
        if (auto rate = analytic.predictThroughputAt(
                *program, 1024 * 8, report.factor))
            model = *rate;
    }
    setCounter(state, "model_MBps", model);
    setCounter(state, "congestion", report.factor);
}

void
xvalRow(benchmark::State &state, core::MachineId machine)
{
    int nodes = static_cast<int>(state.range(0));
    sweep::CellSpec spec;
    spec.kind = sweep::CellKind::Exchange;
    spec.machine = machine;
    spec.style = "chained";
    spec.x = P::contiguous();
    spec.y = P::contiguous();
    spec.words = 1024;
    spec.nodes = nodes;
    spec.id = "xval";
    sweep::CellResult cell;
    rt::ReliableStats reliable;
    for (auto _ : state) {
        cell = sweep::runCell(spec);

        // The reliable transport over the same exchange: channel
        // state materializes per active (src,dst) pair, so 32 pairs
        // x 2 directions = 64 channels -- the footprint witness.
        sim::Machine machine_state(sim::configFor(machine, nodes));
        auto op = rt::pairExchange(machine_state, spec.x, spec.y,
                                   spec.words, 42);
        rt::seedSources(machine_state, op);
        auto layer = rt::makeReliableChained();
        layer->run(machine_state, op);
        reliable = layer->stats();
    }
    setCounter(state, "sim_MBps", cell.simMBps);
    setCounter(state, "model_MBps", cell.modelMBps);
    setCounter(state, "congestion", cell.congestion);
    setCounter(state, "corrupt_words",
               static_cast<double>(cell.corruptWords));
    setCounter(state, "active_channels",
               static_cast<double>(reliable.activeChannels));
    setCounter(state, "retransmits",
               static_cast<double>(reliable.retransmits));
}

void
registerAll()
{
    for (core::MachineId machine : kMachines) {
        std::string base =
            std::string("scale_congestion/") + label(machine) +
            "/nodes";
        auto *c = benchmark::RegisterBenchmark(
            base.c_str(), [machine](benchmark::State &state) {
                congestionRow(state, machine);
            });
        c->Iterations(1)->Unit(benchmark::kMicrosecond);
        for (int nodes : kScaleNodes)
            c->Arg(nodes);

        std::string model_name =
            std::string("scale_model/") + label(machine) + "/nodes";
        auto *m = benchmark::RegisterBenchmark(
            model_name.c_str(), [machine](benchmark::State &state) {
                modelRow(state, machine);
            });
        m->Iterations(1)->Unit(benchmark::kMicrosecond);
        for (int nodes : kScaleNodes)
            m->Arg(nodes);

        std::string xval_name =
            std::string("scale_xval/") + label(machine) + "/nodes";
        auto *x = benchmark::RegisterBenchmark(
            xval_name.c_str(), [machine](benchmark::State &state) {
                xvalRow(state, machine);
            });
        x->Iterations(1)->Unit(benchmark::kMillisecond);
        x->Arg(64);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    registerAll();
    return ct::bench::runBenchmarks(argc, argv, "ext_scale",
                                    "BENCH_scale.json");
}
