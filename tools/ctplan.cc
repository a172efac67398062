/**
 * @file
 * ctplan -- command-line front end to the copy-transfer model.
 *
 * Usage:
 *   ctplan <machine> <xQy> [bytes]    plan an operation (optionally
 *                                     for a given message size;
 *                                     --nodes=N plans at a scaled
 *                                     machine size, congestion
 *                                     derived from the scaled
 *                                     topology -- analytic only, no
 *                                     machine is built, so N=8192
 *                                     answers in microseconds)
 *   ctplan <machine> eval <formula>   rate a formula
 *   ctplan <machine> table            print the paper's tables
 *   ctplan <machine> sim-table        measure the tables on the
 *                                     simulator (the §4 campaign)
 *   ctplan <machine> sim <xQy> [words]
 *                                     run a pairwise exchange on the
 *                                     simulator behind the reliable
 *                                     transport
 *   ctplan validate [--out=FILE]      cross-validate the analytic
 *                                     and simulation backends over
 *                                     every machine x style x legal
 *                                     pattern-pair cell; non-zero
 *                                     exit if any cell misses the
 *                                     tolerance
 *   ctplan sweep --grid=SPEC          run a parameter-sweep grid on
 *                                     the work-stealing farm
 *                                     (presets "fig4"/"faultsweep"/
 *                                     "nodes:LO..HI" or
 *                                     "key=v,v;..." dimensions,
 *                                     see src/sweep/grid.h)
 *   ctplan serve                      crash-calm planning service:
 *                                     answer NDJSON requests from
 *                                     stdin on stdout until EOF
 *                                     (docs/SERVICE.md)
 *
 * Exit codes (uniform across subcommands, see README):
 *   0  success
 *   2  usage or parse error (unknown flag, malformed operation,
 *      bad word count, a sim or sweep cell too large for node RAM,
 *      formula parse error, ...)
 *   3  runtime failure (cannot write an output file, corrupted
 *      delivery, abandoned packets, validation tolerance miss)
 *
 * validate and sweep accept --threads=N ([1, 256], 1 = serial) to
 * fan their cells across the work-stealing sweep farm; the output is
 * byte-identical for every thread count (DESIGN.md §14). Zero,
 * non-numeric and oversubscribed counts are a usage error (exit 2).
 * sim accepts the same --threads=N to run the single simulation on
 * the conservative parallel engine (DESIGN.md §15); the stdout
 * report and --metrics-out JSON are byte-identical for every thread
 * count. --transport=raw (bare chained layer) and
 * --transport=packing (bare buffer-packing layer) swap out the
 * reliable transport for the parallel-safe paths; both are
 * incompatible with --faults/--chaos/--adaptive, which need
 * retransmission.
 *
 * The sim subcommand accepts --faults=SPEC to degrade the machine,
 * e.g. --faults=drop=1e-3,corrupt=1e-4,dup=1e-5,delay=200 (see
 * docs/FAULTS.md for the full key list), --chaos=SPEC to overlay a
 * deterministic chaos campaign (seed-derived fault timelines, see
 * docs/FAULTS.md), --adaptive to run the exchange under the
 * closed-loop resilience controller (with --rounds=N round
 * boundaries, default 8), plus the observability flags --trace=FILE
 * (with --trace-format=chrome|jsonl, default chrome) and
 * --metrics-out=FILE (see docs/OBSERVABILITY.md). Plan and validate
 * accept --json for machine-readable output. Unknown flags and
 * malformed --faults/--chaos values are an error (usage + exit 2),
 * never silently ignored.
 *
 * The serve subcommand takes --workers=N (0 = synchronous),
 * --queue=N (admission bound), --cache=N (memo entries),
 * --default-budget=N (event budget of sim requests that carry
 * none), --svc-chaos=SPEC (deterministic service-level chaos, see
 * docs/SERVICE.md) and --metrics-out=FILE (svc.* counters dumped at
 * shutdown).
 *
 * Examples:
 *   ctplan t3d 1Q64
 *   ctplan t3d 1Q64 --json
 *   ctplan t3d 1Q1 2048               the SOR message size
 *   ctplan paragon wQw
 *   ctplan t3d eval "1C1 o (1S0 || Nd || 0D1) o 1C64"
 *   ctplan t3d sim 1Q4 8192 --faults=drop=0.01,seed=7
 *   ctplan t3d sim 1Q4 4096 --trace=out.json --trace-format=chrome
 *   ctplan t3d sim 1Q1 8192 --faults=drop=0.02 --adaptive --rounds=4
 *   ctplan t3d sim 1Q1 8192 --chaos='ramp:drop:0:0.03:0:400000;seed:7'
 *   ctplan validate --out=BENCH_model_vs_sim.json
 *   ctplan serve --workers=4 --svc-chaos='seed:7;stall:0.1:5'
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "core/parser.h"
#include "core/planner.h"
#include "obs/trace.h"
#include "rt/chained_layer.h"
#include "rt/packing_layer.h"
#include "rt/reliable_layer.h"
#include "rt/resilience.h"
#include "rt/validation.h"
#include "rt/workload.h"
#include "sim/chaos.h"
#include "sim/measure.h"
#include "sim/report.h"
#include "svc/service.h"
#include "sweep/farm.h"
#include "sweep/grid.h"
#include "util/table.h"

namespace {

using namespace ct;
using P = core::AccessPattern;

// Exit-code contract (README): every subcommand reports success,
// usage/parse errors and runtime failures the same way.
constexpr int kExitOk = 0;
constexpr int kExitUsage = 2;
constexpr int kExitRuntime = 3;

int
usage()
{
    std::fprintf(
        stderr,
        "usage: ctplan <t3d|paragon> "
        "<xQy | eval <formula> | table | sim <xQy> [words]>\n"
        "       [--faults=SPEC] [--json] [--nodes=N]\n"
        "       sim also takes [--chaos=SPEC] [--adaptive] "
        "[--rounds=N] [--trace=FILE]\n"
        "       [--trace-format=chrome|jsonl] [--metrics-out=FILE]\n"
        "       [--threads=N] [--transport=reliable|raw|packing]\n"
        "       ctplan validate [--json] [--out=FILE] "
        "[--threads=N]\n"
        "       ctplan sweep --grid=SPEC [--json] [--out=FILE] "
        "[--threads=N]\n"
        "       ctplan serve [--workers=N] [--queue=N] [--cache=N]\n"
        "       [--default-budget=N] [--svc-chaos=SPEC] "
        "[--metrics-out=FILE]\n"
        "  ctplan t3d 1Q64\n"
        "  ctplan t3d 1Q64 --nodes=4096\n"
        "  ctplan paragon wQw\n"
        "  ctplan sweep --grid=nodes:64..8192\n"
        "  ctplan t3d eval '1C1 o (1S0 || Nd || 0D1) o 1C64'\n"
        "  ctplan t3d sim 1Q4 8192 --faults=drop=0.01,seed=7\n"
        "  ctplan t3d sim 1Q4 4096 --trace=out.json "
        "--trace-format=chrome\n"
        "  ctplan t3d sim 1Q1 8192 --faults=drop=0.02 --adaptive\n"
        "  ctplan t3d sim 1Q1 8192 "
        "--chaos='ramp:drop:0:0.03:0:400000;seed:7'\n"
        "  ctplan validate --out=BENCH_model_vs_sim.json\n"
        "  ctplan sweep --grid=fig4 --threads=8\n"
        "  ctplan serve --workers=4 "
        "--svc-chaos='seed:7;stall:0.1:5'\n");
    return kExitUsage;
}

/** Wire layer of the sim subcommand. Reliable is the default and
 *  the only one that can absorb faults; raw and packing run the bare
 *  parallel-safe layers (the paths the parallel engine exercises). */
enum class SimTransport
{
    Reliable,
    Raw,
    Packing,
};

/** Observability flags of the sim subcommand. */
struct ObsOptions
{
    std::string traceFile;
    obs::TraceFormat traceFormat = obs::TraceFormat::Chrome;
    std::string metricsFile;

    bool any() const
    {
        return !traceFile.empty() || !metricsFile.empty();
    }
};

void
printTable(core::MachineId id, bool simulated)
{
    auto table = simulated
                     ? sim::measuredTable(sim::configFor(id))
                     : core::paperTable(id);
    util::TextTable out({"transfer", "MB/s"});
    auto add = [&](const core::BasicTransfer &t) {
        if (auto v = table.lookup(t))
            out.addRow({t.name(), util::TextTable::num(*v)});
    };
    for (auto p : {P::contiguous(), P::strided(16), P::strided(64),
                   P::indexed()}) {
        add(core::localCopy(P::contiguous(), p));
        if (!p.isContiguous())
            add(core::localCopy(p, P::contiguous()));
        add(core::loadSend(p));
        add(core::fetchSend(p));
        add(core::receiveStore(p));
        add(core::receiveDeposit(p));
    }
    std::printf("%s basic transfers:\n%s", table.machineName().c_str(),
                out.render().c_str());
    util::TextTable net({"network", "@1", "@2", "@4"});
    for (auto op : {core::TransferOp::NetData,
                    core::TransferOp::NetAddrData}) {
        std::vector<std::string> row{core::opName(op)};
        for (int c : {1, 2, 4}) {
            auto v = table.lookupNetwork(op, c);
            row.push_back(v ? util::TextTable::num(*v) : "-");
        }
        net.addRow(row);
    }
    std::printf("%s", net.render().c_str());
}

/** Write the --metrics-out / --trace files (0 = ok, else exit
 *  code of the IO failure). */
int
writeObsOutputs(sim::Machine &m, obs::Tracer *tracer,
                const ObsOptions &obs_opts, double clock_hz)
{
    if (!obs_opts.metricsFile.empty()) {
        sim::collectReport(m); // publish machine.* gauges
        std::ofstream out(obs_opts.metricsFile);
        if (!out) {
            std::fprintf(stderr, "cannot write '%s'\n",
                         obs_opts.metricsFile.c_str());
            return kExitRuntime;
        }
        m.metrics().writeJson(out);
        std::printf("  metrics         wrote %s\n",
                    obs_opts.metricsFile.c_str());
    }
    if (tracer) {
        std::ofstream out(obs_opts.traceFile);
        if (!out) {
            std::fprintf(stderr, "cannot write '%s'\n",
                         obs_opts.traceFile.c_str());
            return kExitRuntime;
        }
        tracer->write(out, obs_opts.traceFormat, clock_hz / 1e6);
        std::printf(
            "  trace           wrote %s (%llu events, %llu "
            "dropped)\n",
            obs_opts.traceFile.c_str(),
            static_cast<unsigned long long>(tracer->size()),
            static_cast<unsigned long long>(tracer->dropped()));
    }
    return 0;
}

/**
 * Run a pairwise exchange of @p words elements on the simulator
 * behind the reliable transport, optionally under an injected fault
 * load and a chaos campaign. Static mode runs the chained layer in
 * one shot; --adaptive slices the exchange into rounds under the
 * closed-loop resilience controller.
 */
int
runSim(core::MachineId machine, const std::string &xqy,
       std::uint64_t words, const sim::FaultSpec &faults,
       const sim::ChaosSchedule &chaos, bool adaptive, int rounds,
       const ObsOptions &obs_opts, int threads,
       SimTransport transport)
{
    auto q = xqy.find('Q');
    if (q == std::string::npos) {
        std::fprintf(stderr, "bad operation '%s'\n", xqy.c_str());
        return kExitUsage;
    }
    auto x = P::parse(xqy.substr(0, q));
    auto y = P::parse(xqy.substr(q + 1));
    if (!x || !y || x->isFixed() || y->isFixed()) {
        std::fprintf(stderr, "bad operation '%s'\n", xqy.c_str());
        return kExitUsage;
    }

    auto cfg = sim::configFor(machine);
    std::string unfit = rt::exchangeFitError(
        cfg.node, *x, *y, words,
        transport == SimTransport::Packing ? 1 : 0);
    if (!unfit.empty()) {
        std::fprintf(stderr, "%s\n", unfit.c_str());
        return kExitUsage;
    }
    cfg.faults = faults;
    cfg.chaos = chaos;
    // 1 = serial: run the plain event loop, no engine constructed.
    cfg.threads = threads == 1 ? 0 : threads;
    sim::Machine m(cfg);

    std::unique_ptr<obs::Tracer> tracer;
    if (!obs_opts.traceFile.empty()) {
        tracer = std::make_unique<obs::Tracer>(1 << 20);
        m.setTracer(tracer.get());
    }

    auto op = rt::pairExchange(m, *x, *y, words);

    // Flows touching nodes that are down before the run starts can
    // never deliver; plan around them instead of timing them out.
    const sim::Topology &topo = m.topology();
    std::uint64_t planned_out = 0;
    if (topo.anyOutages()) {
        std::vector<rt::Flow> live;
        for (const rt::Flow &flow : op.flows) {
            if (topo.nodeAlive(flow.src, 0) &&
                topo.nodeAlive(flow.dst, 0))
                live.push_back(flow);
            else
                planned_out += flow.words;
        }
        op.flows = std::move(live);
    }

    if (adaptive) {
        // The resilience controller drives the reliable transport,
        // whose cancellable retransmit timers are not window-safe.
        m.setParallelEnabled(false);
        rt::ResilienceController controller(cfg, *x, *y);
        rt::AdaptiveResult ar =
            rt::runAdaptiveExchange(m, op, controller, rounds);

        sim::Cycles end = m.events().now();
        const auto &n = m.network().stats();
        std::printf("%s %s, %llu words/node, faults: %s, chaos: %s\n",
                    cfg.name.c_str(), xqy.c_str(),
                    static_cast<unsigned long long>(words),
                    faults.summary().c_str(),
                    chaos.summary().c_str());
        std::printf("  layer           adaptive (%s -> %s), "
                    "%d rounds%s\n",
                    controller.options().initialStyle.c_str(),
                    ar.finalStyle.c_str(), ar.rounds,
                    ar.degraded ? "  [DEGRADED to packing]" : "");
        std::printf("  goodput         %.2f MB/s per node\n",
                    m.toMBps(op.maxBytesPerSender(), ar.makespan));
        std::printf("  makespan        %llu cycles\n",
                    static_cast<unsigned long long>(ar.makespan));
        std::printf("  wire bytes      %llu\n",
                    static_cast<unsigned long long>(n.wireBytes));
        std::printf("  decisions       %d style switch(es), %d "
                    "transport retune(s), %d forced checkpoint(s)\n",
                    ar.styleSwitches, ar.transportAdaptations,
                    ar.forcedCheckpoints);
        for (const rt::PolicyDecision &d : ar.decisions) {
            if (d.action == rt::PolicyAction::SwitchStyle)
                std::printf("    round %-3d %s %s -> %s "
                            "(%.2f vs %.2f MB/s, loss %.4f)\n",
                            d.round,
                            rt::policyActionName(d.action),
                            d.fromStyle.c_str(), d.toStyle.c_str(),
                            d.rateCurrent, d.rateAlternate,
                            d.observedLoss);
            else
                std::printf("    round %-3d %s (loss %.4f, rto "
                            "%llu, retries %d)\n",
                            d.round,
                            rt::policyActionName(d.action),
                            d.observedLoss,
                            static_cast<unsigned long long>(
                                d.retransmitTimeout),
                            d.maxRetries);
        }
        std::printf("  fingerprint     %016llx\n",
                    static_cast<unsigned long long>(ar.fingerprint));
        if (topo.anyOutages())
            std::printf(
                "  outages         %d links / %d nodes down, "
                "%llu packets rerouted (%llu links detoured), "
                "%llu unroutable\n",
                topo.downedLinks(end), topo.downedNodes(end),
                static_cast<unsigned long long>(n.reroutedPackets),
                static_cast<unsigned long long>(n.reroutedLinks),
                static_cast<unsigned long long>(
                    n.unroutablePackets));
        if (planned_out > 0 || ar.skippedFlows > 0)
            std::printf("  lost to outages %llu words planned out, "
                        "%d flow(s) unverifiable (dead endpoint)\n",
                        static_cast<unsigned long long>(planned_out),
                        ar.skippedFlows);
        std::printf("  delivery        %s\n",
                    ar.corruptWords == 0 ? "bit-exact" : "CORRUPTED");
        if (int rc =
                writeObsOutputs(m, tracer.get(), obs_opts,
                                cfg.clockHz))
            return rc;
        return ar.corruptWords == 0 ? kExitOk : kExitRuntime;
    }

    rt::seedSources(m, op);
    std::unique_ptr<rt::MessageLayer> layer;
    rt::ReliableLayer *reliable = nullptr;
    if (transport == SimTransport::Raw) {
        layer = std::make_unique<rt::ChainedLayer>();
    } else if (transport == SimTransport::Packing) {
        layer = std::make_unique<rt::PackingLayer>();
    } else {
        auto rl = rt::makeReliableChained();
        reliable = rl.get();
        layer = std::move(rl);
    }
    m.setParallelEnabled(layer->parallelSafe());
    m.setParallelLookahead(layer->parallelLookahead(m, op));
    auto result = layer->run(m, op);

    // Exclude flows whose endpoint died mid-run from verification;
    // their loss is a reported outage, not a corruption.
    std::uint64_t lost_words = planned_out;
    rt::CommOp check;
    check.name = op.name;
    sim::Cycles end = m.events().now();
    for (const rt::Flow &flow : op.flows) {
        if (!topo.anyOutages() || (topo.nodeAlive(flow.src, end) &&
                                   topo.nodeAlive(flow.dst, end)))
            check.flows.push_back(flow);
        else
            lost_words += flow.words;
    }
    std::uint64_t bad = rt::verifyDelivery(m, check);

    const auto &n = m.network().stats();
    std::printf("%s %s, %llu words/node, faults: %s",
                cfg.name.c_str(), xqy.c_str(),
                static_cast<unsigned long long>(words),
                faults.summary().c_str());
    if (chaos.any())
        std::printf(", chaos: %s", chaos.summary().c_str());
    std::printf("\n");
    std::printf("  layer           %s%s\n", layer->name().c_str(),
                result.degraded ? "  [DEGRADED to packing]" : "");
    // Engine diagnostics go to stderr: the stdout report is part of
    // the determinism contract and must not vary with --threads.
    if (const sim::ParallelEngine *pe = m.parallelEngine())
        std::fprintf(stderr,
                     "  engine          %d threads, lookahead %llu "
                     "cycles, %llu/%llu windows parallel\n",
                     pe->threads(),
                     static_cast<unsigned long long>(pe->lookahead()),
                     static_cast<unsigned long long>(
                         pe->stats().parallelWindows),
                     static_cast<unsigned long long>(
                         pe->stats().windows));
    std::printf("  goodput         %.2f MB/s per node\n",
                result.perNodeMBps(m));
    std::printf("  makespan        %llu cycles\n",
                static_cast<unsigned long long>(result.makespan));
    std::printf("  wire bytes      %llu\n",
                static_cast<unsigned long long>(n.wireBytes));
    if (reliable) {
        const auto &t = reliable->stats();
        std::printf("  data packets    %llu  (+%llu retransmits)\n",
                    static_cast<unsigned long long>(t.dataPackets),
                    static_cast<unsigned long long>(t.retransmits));
    }
    std::printf("  dropped/corrupt %llu/%llu on the wire\n",
                static_cast<unsigned long long>(n.droppedPackets),
                static_cast<unsigned long long>(n.corruptedPackets));
    if (topo.anyOutages()) {
        std::printf(
            "  outages         %d links / %d nodes down, "
            "%llu packets rerouted (%llu links detoured), "
            "%llu unroutable\n",
            topo.downedLinks(end), topo.downedNodes(end),
            static_cast<unsigned long long>(n.reroutedPackets),
            static_cast<unsigned long long>(n.reroutedLinks),
            static_cast<unsigned long long>(n.unroutablePackets));
        if (lost_words > 0)
            std::printf("  lost to outages %llu words "
                        "(dead endpoints)\n",
                        static_cast<unsigned long long>(lost_words));
    }
    std::printf("  delivery        %s\n",
                bad == 0 ? "bit-exact" : "CORRUPTED");

    if (int rc =
            writeObsOutputs(m, tracer.get(), obs_opts, cfg.clockHz))
        return rc;

    // Abandoned delivery that was not absorbed by a degradation path
    // is a silent data-loss bug; fail loudly and name the channels.
    if (reliable && reliable->stats().abandoned > 0 &&
        !result.degraded) {
        const auto &t = reliable->stats();
        std::fprintf(stderr,
                     "ERROR: reliable transport abandoned %llu "
                     "packet(s) without degradation; affected "
                     "channels:\n",
                     static_cast<unsigned long long>(t.abandoned));
        for (const auto &[src, dst] : t.abandonedChannels)
            std::fprintf(stderr, "  %d -> %d\n", src, dst);
        return kExitRuntime;
    }
    return bad == 0 ? kExitOk : kExitRuntime;
}

/**
 * Cross-validate the two backends over every machine x style x legal
 * pattern-pair cell. Returns non-zero when any cell misses the
 * tolerance, so CI can gate on it.
 */
int
runValidate(bool json, const std::string &out_file, int threads)
{
    rt::ValidationOptions options;
    // 1 = serial: run inline, no workers spawned.
    options.threads = threads == 1 ? 0 : threads;
    rt::ValidationReport report = rt::crossValidate(options);
    if (json)
        std::printf("%s", rt::validationJson(report).c_str());
    else
        std::printf("%s", rt::formatValidation(report).c_str());
    if (!out_file.empty()) {
        std::ofstream out(out_file);
        if (!out) {
            std::fprintf(stderr, "cannot write '%s'\n",
                         out_file.c_str());
            return kExitRuntime;
        }
        out << rt::validationJson(report);
        std::printf("wrote %s\n", out_file.c_str());
    }
    return report.allPass ? kExitOk : kExitRuntime;
}

/**
 * Run a sweep grid on the work-stealing farm. Results are merged in
 * canonical cell order, so the rendered table/JSON is byte-identical
 * for every --threads value.
 */
int
runSweepGrid(const std::string &spec, int threads, bool json,
             const std::string &out_file)
{
    std::string error;
    auto grid = sweep::Grid::parse(spec, &error);
    if (!grid) {
        std::fprintf(stderr, "bad --grid: %s\n", error.c_str());
        return kExitUsage;
    }
    sweep::Farm farm({threads == 1 ? 0 : threads, 0});
    std::vector<sweep::CellResult> results =
        sweep::runGrid(*grid, farm);
    if (json)
        std::printf("%s", sweep::resultsJson(results).c_str());
    else
        std::printf("%s", sweep::formatResults(results).c_str());
    if (!out_file.empty()) {
        std::ofstream out(out_file);
        if (!out) {
            std::fprintf(stderr, "cannot write '%s'\n",
                         out_file.c_str());
            return kExitRuntime;
        }
        out << sweep::resultsJson(results);
        std::printf("wrote %s\n", out_file.c_str());
    }
    return kExitOk;
}

/**
 * The crash-calm planning service: answer NDJSON requests from stdin
 * on stdout until EOF, one response line per request line, in
 * arrival order (docs/SERVICE.md). Blank lines are ignored. Exit is
 * 0 after a clean drain -- per-request failures travel in-band as
 * "rejected"/"error" responses, never as a dropped line.
 */
int
runServe(const svc::ServiceOptions &opts,
         const std::string &metrics_file)
{
    svc::PlanService service(
        opts, [](const svc::ServiceResponse &resp) {
            std::fputs(resp.line.c_str(), stdout);
            std::fputc('\n', stdout);
        });
    service.start();
    std::string line;
    while (std::getline(std::cin, line)) {
        if (line.empty())
            continue;
        service.submit(line);
    }
    service.stop();
    std::fflush(stdout);
    if (!metrics_file.empty()) {
        std::ofstream out(metrics_file);
        if (!out) {
            std::fprintf(stderr, "cannot write '%s'\n",
                         metrics_file.c_str());
            return kExitRuntime;
        }
        service.metrics().writeJson(out);
    }
    return kExitOk;
}

/**
 * Large-N planning context: the scaled topology and the congestion
 * analysis of the pair-exchange pattern on it. Built from a Topology
 * alone -- never a Machine -- so a --nodes=8192 plan allocates a few
 * link tables and a demand list, nothing per-node beyond them.
 */
struct ScaleInfo
{
    int nodes = 0;
    sim::TopologyConfig topology;
    sim::CongestionReport report;
};

/** Render "16x16x16" from a dims vector. */
std::string
dimsLabel(const std::vector<int> &dims)
{
    std::string label;
    for (std::size_t d = 0; d < dims.size(); ++d) {
        if (d)
            label += 'x';
        label += std::to_string(dims[d]);
    }
    return label;
}

/** JSON rendering of a planning decision (plan --json). */
void
printPlanJson(const core::PlanQuery &query,
              const std::vector<core::PlannedStrategy> &plans,
              util::Bytes bytes,
              const std::vector<core::SizedPlan> &sized,
              const ScaleInfo *scale)
{
    core::MachineCaps caps = core::paperCaps(query.machine);
    std::printf("{\n");
    std::printf("  \"machine\": \"%s\",\n", caps.name.c_str());
    std::printf("  \"x\": \"%s\",\n", query.read.label().c_str());
    std::printf("  \"y\": \"%s\",\n", query.write.label().c_str());
    if (scale) {
        std::printf("  \"nodes\": %d,\n", scale->nodes);
        std::printf("  \"dims\": \"%s\",\n",
                    dimsLabel(scale->topology.dims).c_str());
        std::printf("  \"congestion\": %.3f,\n",
                    scale->report.factor);
        std::printf("  \"routed_demands\": %d,\n",
                    scale->report.routed);
        std::printf("  \"unroutable_demands\": %d,\n",
                    scale->report.unroutable);
    }
    std::printf("  \"plans\": [\n");
    for (std::size_t i = 0; i < plans.size(); ++i) {
        const auto &p = plans[i];
        std::printf("    {\"style\": \"%s\", \"estimate_mbps\": "
                    "%.3f, \"formula\": \"%s\"}%s\n",
                    p.strategy.program.styleKey.c_str(), p.estimate,
                    p.strategy.expr->format().c_str(),
                    i + 1 < plans.size() ? "," : "");
    }
    std::printf("  ]%s\n", sized.empty() ? "" : ",");
    if (!sized.empty()) {
        std::printf("  \"message_bytes\": %llu,\n",
                    static_cast<unsigned long long>(bytes));
        std::printf("  \"sized_plans\": [\n");
        for (std::size_t i = 0; i < sized.size(); ++i) {
            const auto &p = sized[i];
            std::printf(
                "    {\"style\": \"%s\", \"effective_mbps\": %.3f, "
                "\"asymptotic_mbps\": %.3f, "
                "\"half_power_bytes\": %llu}%s\n",
                p.key.c_str(), p.effective, p.asymptotic,
                static_cast<unsigned long long>(p.halfPower),
                i + 1 < sized.size() ? "," : "");
        }
        std::printf("  ]\n");
    }
    std::printf("}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    // Peel off flags wherever they appear. Anything starting with
    // "--" that is not recognized is an error, not a positional
    // argument: silently ignoring a mistyped flag would run a
    // different experiment than the user asked for.
    sim::FaultSpec faults;
    bool faults_set = false;
    sim::ChaosSchedule chaos;
    bool chaos_set = false;
    bool adaptive = false;
    int rounds = 4;
    bool rounds_set = false;
    bool json = false;
    std::string out_file;
    bool out_set = false;
    ObsOptions obs_opts;
    svc::ServiceOptions serve_opts;
    bool serve_flags_set = false;
    int threads = 1;
    bool threads_set = false;
    SimTransport transport = SimTransport::Reliable;
    bool transport_set = false;
    std::string grid_spec;
    bool grid_set = false;
    int scale_nodes = 0;
    bool nodes_set = false;
    // Flags that take a =VALUE; a bare occurrence (or an empty
    // value) gets a dedicated diagnostic instead of the generic
    // unknown-flag one.
    const char *valued_flags[] = {
        "--faults",         "--chaos",     "--rounds",
        "--out",            "--trace",     "--trace-format",
        "--metrics-out",    "--workers",   "--queue",
        "--cache",          "--default-budget", "--svc-chaos",
        "--threads",        "--grid",      "--transport",
        "--nodes"};
    // Shared helper for the serve subcommand's integer flags.
    auto parse_count = [](const char *text, const char *flag,
                          long min, long max, long &value) {
        char *end = nullptr;
        long v = std::strtol(text, &end, 10);
        if (*end != '\0' || v < min || v > max) {
            std::fprintf(stderr, "bad %s '%s'\n", flag, text);
            return false;
        }
        value = v;
        return true;
    };
    int nargs = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--faults=", 9) == 0 &&
            argv[i][9]) {
            std::string error;
            auto parsed = sim::FaultSpec::tryParse(argv[i] + 9,
                                                   &error);
            if (!parsed) {
                std::fprintf(stderr, "bad --faults: %s\n",
                             error.c_str());
                return usage();
            }
            faults = *parsed;
            faults_set = true;
        } else if (std::strncmp(argv[i], "--chaos=", 8) == 0 &&
                   argv[i][8]) {
            std::string error;
            auto parsed = sim::ChaosSchedule::tryParse(argv[i] + 8,
                                                       &error);
            if (!parsed) {
                std::fprintf(stderr, "bad --chaos: %s\n",
                             error.c_str());
                return usage();
            }
            chaos = *parsed;
            chaos_set = true;
        } else if (std::strcmp(argv[i], "--adaptive") == 0)
            adaptive = true;
        else if (std::strncmp(argv[i], "--rounds=", 9) == 0 &&
                 argv[i][9]) {
            char *end = nullptr;
            long v = std::strtol(argv[i] + 9, &end, 10);
            if (*end != '\0' || v < 1 || v > 1 << 20) {
                std::fprintf(stderr, "bad --rounds '%s'\n",
                             argv[i] + 9);
                return usage();
            }
            rounds = static_cast<int>(v);
            rounds_set = true;
        } else if (std::strcmp(argv[i], "--json") == 0)
            json = true;
        else if (std::strncmp(argv[i], "--out=", 6) == 0 &&
                 argv[i][6]) {
            out_file = argv[i] + 6;
            out_set = true;
        } else if (std::strncmp(argv[i], "--trace=", 8) == 0 &&
                   argv[i][8])
            obs_opts.traceFile = argv[i] + 8;
        else if (std::strncmp(argv[i], "--trace-format=", 15) == 0 &&
                 argv[i][15]) {
            if (!obs::parseTraceFormat(argv[i] + 15,
                                       obs_opts.traceFormat)) {
                std::fprintf(stderr,
                             "bad trace format '%s' (expected "
                             "chrome or jsonl)\n",
                             argv[i] + 15);
                return usage();
            }
        } else if (std::strncmp(argv[i], "--metrics-out=", 14) == 0 &&
                   argv[i][14])
            obs_opts.metricsFile = argv[i] + 14;
        else if (std::strncmp(argv[i], "--workers=", 10) == 0 &&
                 argv[i][10]) {
            long v;
            if (!parse_count(argv[i] + 10, "--workers", 0, 256, v))
                return usage();
            serve_opts.workers = static_cast<int>(v);
            serve_flags_set = true;
        } else if (std::strncmp(argv[i], "--queue=", 8) == 0 &&
                   argv[i][8]) {
            long v;
            if (!parse_count(argv[i] + 8, "--queue", 1, 1 << 20, v))
                return usage();
            serve_opts.queueCapacity = static_cast<std::size_t>(v);
            serve_flags_set = true;
        } else if (std::strncmp(argv[i], "--cache=", 8) == 0 &&
                   argv[i][8]) {
            long v;
            if (!parse_count(argv[i] + 8, "--cache", 1, 1 << 20, v))
                return usage();
            serve_opts.cacheCapacity = static_cast<std::size_t>(v);
            serve_flags_set = true;
        } else if (std::strncmp(argv[i], "--default-budget=", 17) ==
                       0 &&
                   argv[i][17]) {
            char *end = nullptr;
            unsigned long long v =
                std::strtoull(argv[i] + 17, &end, 10);
            if (*end != '\0') {
                std::fprintf(stderr, "bad --default-budget '%s'\n",
                             argv[i] + 17);
                return usage();
            }
            serve_opts.defaultBudget = v;
            serve_flags_set = true;
        } else if (std::strncmp(argv[i], "--threads=", 10) == 0 &&
                   argv[i][10]) {
            std::string error;
            if (!sweep::parseThreadCount(argv[i] + 10, threads,
                                         error)) {
                std::fprintf(stderr, "bad --threads '%s': %s\n",
                             argv[i] + 10, error.c_str());
                return usage();
            }
            threads_set = true;
        } else if (std::strncmp(argv[i], "--transport=", 12) == 0 &&
                   argv[i][12]) {
            const char *value = argv[i] + 12;
            if (std::strcmp(value, "reliable") == 0)
                transport = SimTransport::Reliable;
            else if (std::strcmp(value, "raw") == 0)
                transport = SimTransport::Raw;
            else if (std::strcmp(value, "packing") == 0)
                transport = SimTransport::Packing;
            else {
                std::fprintf(stderr,
                             "bad --transport '%s' (expected "
                             "reliable, raw or packing)\n",
                             value);
                return usage();
            }
            transport_set = true;
        } else if (std::strncmp(argv[i], "--grid=", 7) == 0 &&
                   argv[i][7]) {
            grid_spec = argv[i] + 7;
            grid_set = true;
        } else if (std::strncmp(argv[i], "--nodes=", 8) == 0 &&
                   argv[i][8]) {
            long v;
            if (!parse_count(argv[i] + 8, "--nodes", 8, 8192, v))
                return usage();
            if (!sim::validScaleNodes(static_cast<int>(v))) {
                std::fprintf(stderr,
                             "bad --nodes '%s' (expected a power of "
                             "two in [8, 8192])\n",
                             argv[i] + 8);
                return usage();
            }
            scale_nodes = static_cast<int>(v);
            nodes_set = true;
        } else if (std::strncmp(argv[i], "--svc-chaos=", 12) == 0 &&
                   argv[i][12]) {
            std::string error;
            auto parsed =
                svc::SvcChaos::tryParse(argv[i] + 12, &error);
            if (!parsed) {
                std::fprintf(stderr, "bad --svc-chaos: %s\n",
                             error.c_str());
                return usage();
            }
            serve_opts.chaos = *parsed;
            serve_flags_set = true;
        } else if (std::strncmp(argv[i], "--", 2) == 0) {
            for (const char *flag : valued_flags) {
                std::size_t len = std::strlen(flag);
                bool bare = std::strcmp(argv[i], flag) == 0;
                bool empty = std::strncmp(argv[i], flag, len) == 0 &&
                             argv[i][len] == '=' &&
                             argv[i][len + 1] == '\0';
                if (bare || empty) {
                    std::fprintf(stderr,
                                 "flag '%s' requires a value "
                                 "(%s=...)\n",
                                 argv[i], flag);
                    return usage();
                }
            }
            std::fprintf(stderr, "unknown flag '%s'\n", argv[i]);
            return usage();
        } else
            argv[nargs++] = argv[i];
    }
    argc = nargs;

    if (argc >= 2 && std::strcmp(argv[1], "serve") == 0) {
        if (argc > 2) {
            std::fprintf(stderr,
                         "serve takes no positional arguments\n");
            return usage();
        }
        if (faults_set || chaos_set || adaptive || rounds_set ||
            json || out_set || threads_set || transport_set ||
            grid_set || nodes_set || !obs_opts.traceFile.empty()) {
            std::fprintf(
                stderr,
                "serve takes only --workers/--queue/--cache/"
                "--default-budget/--svc-chaos/--metrics-out\n");
            return usage();
        }
        return runServe(serve_opts, obs_opts.metricsFile);
    }
    if (serve_flags_set) {
        std::fprintf(stderr,
                     "--workers/--queue/--cache/--default-budget/"
                     "--svc-chaos apply to the serve subcommand "
                     "only\n");
        return usage();
    }

    if (argc >= 2 && (std::strcmp(argv[1], "validate") == 0 ||
                      std::strcmp(argv[1], "sweep") == 0)) {
        bool is_sweep = std::strcmp(argv[1], "sweep") == 0;
        if (argc > 2) {
            std::fprintf(stderr, "%s takes no positional arguments\n",
                         argv[1]);
            return usage();
        }
        if (obs_opts.any()) {
            std::fprintf(stderr, "--trace/--metrics-out apply to "
                                 "the sim subcommand only\n");
            return usage();
        }
        if (faults_set || chaos_set || adaptive || rounds_set ||
            transport_set) {
            std::fprintf(stderr,
                         "--faults/--chaos/--adaptive/--rounds/"
                         "--transport apply to the sim subcommand "
                         "only\n");
            return usage();
        }
        if (nodes_set) {
            std::fprintf(stderr, "--nodes applies to the plan (xQy) "
                                 "subcommand only\n");
            return usage();
        }
        if (is_sweep) {
            if (!grid_set) {
                std::fprintf(stderr,
                             "sweep requires --grid=SPEC\n");
                return usage();
            }
            return runSweepGrid(grid_spec, threads, json, out_file);
        }
        if (grid_set) {
            std::fprintf(stderr, "--grid applies to the sweep "
                                 "subcommand only\n");
            return usage();
        }
        return runValidate(json, out_file, threads);
    }
    if (grid_set) {
        std::fprintf(stderr,
                     "--grid applies to the sweep subcommand only\n");
        return usage();
    }
    if (argc < 3)
        return usage();

    core::MachineId machine;
    if (std::strcmp(argv[1], "t3d") == 0)
        machine = core::MachineId::T3d;
    else if (std::strcmp(argv[1], "paragon") == 0)
        machine = core::MachineId::Paragon;
    else
        return usage();

    std::string cmd = argv[2];
    bool is_plan = cmd != "table" && cmd != "sim-table" &&
                   cmd != "sim" && cmd != "eval";
    if (nodes_set && !is_plan) {
        std::fprintf(stderr, "--nodes applies to the plan (xQy) "
                             "subcommand only\n");
        return usage();
    }
    if (obs_opts.any() && cmd != "sim") {
        std::fprintf(stderr, "--trace/--metrics-out apply to the "
                             "sim subcommand only\n");
        return usage();
    }
    if ((faults_set || chaos_set || adaptive || rounds_set) &&
        cmd != "sim") {
        std::fprintf(stderr,
                     "--faults/--chaos/--adaptive/--rounds apply to "
                     "the sim subcommand only\n");
        return usage();
    }
    if ((threads_set || transport_set) && cmd != "sim") {
        std::fprintf(stderr,
                     "--threads applies to the validate, sweep and "
                     "sim subcommands only (--transport to sim)\n");
        return usage();
    }
    if (rounds_set && !adaptive) {
        std::fprintf(stderr, "--rounds requires --adaptive\n");
        return usage();
    }
    if (transport != SimTransport::Reliable &&
        (faults_set || chaos_set || adaptive)) {
        std::fprintf(stderr,
                     "--transport=raw/packing runs without the "
                     "reliable transport and cannot absorb "
                     "--faults/--chaos/--adaptive\n");
        return usage();
    }
    if (json && !is_plan) {
        std::fprintf(stderr, "--json applies to the plan (xQy) and "
                             "validate subcommands only\n");
        return usage();
    }
    if (out_set) {
        std::fprintf(stderr,
                     "--out applies to the validate subcommand "
                     "only\n");
        return usage();
    }
    if (cmd == "table") {
        printTable(machine, false);
        return 0;
    }
    if (cmd == "sim-table") {
        printTable(machine, true);
        return 0;
    }
    if (cmd == "sim") {
        if (argc < 4)
            return usage();
        std::uint64_t words = 1024;
        if (argc >= 5) {
            words = std::strtoull(argv[4], nullptr, 10);
            if (words == 0) {
                std::fprintf(stderr, "bad word count '%s'\n",
                             argv[4]);
                return kExitUsage;
            }
        }
        return runSim(machine, argv[3], words, faults, chaos,
                      adaptive, rounds, obs_opts, threads,
                      transport);
    }

    if (cmd == "eval") {
        if (argc < 4)
            return usage();
        auto parsed = core::parse(argv[3]);
        if (auto *err = std::get_if<core::ParseError>(&parsed)) {
            std::fprintf(stderr, "parse error at %zu: %s\n",
                         err->position, err->message.c_str());
            return kExitUsage;
        }
        auto expr = std::get<core::ExprPtr>(parsed);
        auto table = core::paperTable(machine);
        core::EvalContext ctx;
        ctx.table = &table;
        ctx.congestion = core::paperCaps(machine).defaultCongestion;
        std::printf("%s", core::explain(expr, ctx).c_str());
        return 0;
    }

    // xQy form: split at 'Q'.
    auto q = cmd.find('Q');
    if (q == std::string::npos)
        return usage();
    auto x = P::parse(cmd.substr(0, q));
    auto y = P::parse(cmd.substr(q + 1));
    if (!x || !y || x->isFixed() || y->isFixed()) {
        std::fprintf(stderr, "bad operation '%s'\n", cmd.c_str());
        return kExitUsage;
    }
    core::PlanQuery query{machine, *x, *y, 0.0};
    std::unique_ptr<ScaleInfo> scale;
    if (nodes_set) {
        // Large-N planning: rebuild the topology -- just the
        // topology, never a machine -- at the requested node count
        // and derive the congestion of the pair-exchange pattern
        // from static link-load analysis. The demand bytes cancel in
        // the factor, so one word per demand is enough.
        scale = std::make_unique<ScaleInfo>();
        scale->nodes = scale_nodes;
        scale->topology =
            sim::configFor(machine, scale_nodes).topology;
        sim::Topology topo(scale->topology);
        scale->report = topo.analyzeCongestion(
            rt::pairExchangeDemands(scale_nodes, 8));
        query.congestion = scale->report.factor;
    }
    auto plans = core::plan(query);

    util::Bytes bytes = 0;
    std::vector<core::SizedPlan> sized;
    if (argc >= 4) {
        // Size-aware ranking via the latency-extended model.
        bytes = static_cast<ct::util::Bytes>(
            std::strtoull(argv[3], nullptr, 10));
        if (bytes == 0) {
            std::fprintf(stderr, "bad message size '%s'\n", argv[3]);
            return kExitUsage;
        }
        sized = core::planForSize(machine, *x, *y, bytes);
    }

    if (json) {
        printPlanJson(query, plans, bytes, sized, scale.get());
        return 0;
    }

    if (scale) {
        std::printf("at %d nodes (%s %s): congestion %.2f, "
                    "%d demands routed, %d unroutable\n",
                    scale->nodes,
                    dimsLabel(scale->topology.dims).c_str(),
                    scale->topology.torus ? "torus" : "mesh",
                    scale->report.factor, scale->report.routed,
                    scale->report.unroutable);
    }
    std::printf("%s", core::formatPlan(query, plans).c_str());
    if (!sized.empty()) {
        std::printf("\nat %llu-byte messages (latency-extended "
                    "model):\n",
                    static_cast<unsigned long long>(bytes));
        for (const auto &p : sized) {
            std::printf("  %-15s %6.1f MB/s effective "
                        "(asymptotic %.1f, n1/2 = %llu B)\n",
                        p.key.c_str(), p.effective, p.asymptotic,
                        static_cast<unsigned long long>(p.halfPower));
        }
    }
    return 0;
}
