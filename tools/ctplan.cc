/**
 * @file
 * ctplan -- command-line front end to the copy-transfer model.
 *
 * Subcommands (kCommands below):
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
 *                                     run a pairwise exchange of the
 *                                     --transport program through
 *                                     rt::SimBackend
 *   ctplan validate                   cross-validate the analytic
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
 * Flags are --name or --name=VALUE and may appear anywhere on the
 * line. kFlags below lists each one with the subcommands that take
 * it, and the synopsis printed on a usage error is generated from the
 * two tables. Counts, flag values and positionals alike, are strict
 * decimals. Three rules span flags: sweep needs --grid, --rounds
 * (default 4) needs --adaptive, and --transport=raw|packing, which
 * runs without the reliable transport, cannot absorb --faults,
 * --chaos or --adaptive.
 *
 * --threads=N ([1, 256], 1 = serial) fans validate and sweep cells
 * across the work-stealing sweep farm (DESIGN.md §14) and runs one
 * sim on the conservative parallel engine (DESIGN.md §15); the
 * output, including sim's --metrics-out JSON, is byte-identical for
 * every N. The --faults and --chaos specs are described in
 * docs/FAULTS.md, --svc-chaos in docs/SERVICE.md, --trace and
 * --metrics-out in docs/OBSERVABILITY.md.
 *
 * Exit codes (uniform across subcommands, see README):
 *   0  success
 *   2  usage or parse error (an unknown, repeated or misplaced flag,
 *      a missing or extra positional, a malformed count, operation,
 *      spec or formula, a sim or sweep cell too large for node RAM)
 *   3  runtime failure (cannot write an output file, corrupted
 *      delivery, abandoned packets, validation tolerance miss)
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "core/parser.h"
#include "core/planner.h"
#include "core/style_registry.h"
#include "obs/trace.h"
#include "rt/resilience.h"
#include "rt/sim_backend.h"
#include "rt/validation.h"
#include "rt/workload.h"
#include "sim/chaos.h"
#include "sim/measure.h"
#include "sim/report.h"
#include "svc/service.h"
#include "sweep/farm.h"
#include "sweep/grid.h"
#include "util/string_util.h"
#include "util/table.h"

namespace {

using namespace ct;
using P = core::AccessPattern;

// Exit-code contract (README): every subcommand reports success,
// usage/parse errors and runtime failures the same way.
constexpr int kExitOk = 0;
constexpr int kExitUsage = 2;
constexpr int kExitRuntime = 3;

/** Subcommand bits; a flag's scope is the union of its subcommands. */
enum : unsigned
{
    kPlan = 1u << 0,
    kEval = 1u << 1,
    kTable = 1u << 2,
    kSimTable = 1u << 3,
    kSim = 1u << 4,
    kValidate = 1u << 5,
    kSweep = 1u << 6,
    kServe = 1u << 7,
};

/** A parsed command line: the machine, the subcommand's positionals
 *  and every flag's value (its default when not given). */
struct Invocation
{
    core::MachineId machine = core::MachineId::T3d;
    /** Positionals after the subcommand name (plan: the xQy first). */
    std::vector<std::string> args;
    /** Names of the flags given. */
    std::set<std::string> given;

    sim::FaultSpec faults;
    sim::ChaosSchedule chaos;
    bool adaptive = false;
    int rounds = 4;
    std::string traceFile;
    obs::TraceFormat traceFormat = obs::TraceFormat::Chrome;
    std::string metricsFile;
    int threads = 1;
    /** sim's --transport: a registry style, by default behind the
     *  reliable transport, the only one that absorbs faults. */
    std::string style = "chained";
    bool reliable = true;
    bool json = false;
    std::string outFile;
    std::string grid;
    int nodes = 0;
    svc::ServiceOptions serve;
};

int usage(const std::string &error = "");

/** Parse the optional second positional, if given, as a count >= 1
 *  into @p out; false after a diagnostic. */
template <typename T>
bool
countArg(const Invocation &inv, const char *what, T &out)
{
    if (inv.args.size() < 2)
        return true;
    const std::string &text = inv.args[1];
    std::string error = util::parseCount(text, 1, UINT64_MAX, out);
    if (!error.empty())
        usage(std::string("bad ") + what + " '" + text + "': " + error);
    return error.empty();
}

/** Split an xQy operation at 'Q'; nullopt after a diagnostic when
 *  it is malformed or a side does not touch memory. */
std::optional<std::pair<P, P>>
parseOperation(const std::string &xqy)
{
    auto q = xqy.find('Q');
    std::optional<P> x, y;
    if (q != std::string::npos) {
        x = P::parse(xqy.substr(0, q));
        y = P::parse(xqy.substr(q + 1));
    }
    if (!x || !y || x->isFixed() || y->isFixed()) {
        std::fprintf(stderr, "bad operation '%s'\n", xqy.c_str());
        return std::nullopt;
    }
    return std::make_pair(*x, *y);
}

/** Open @p path and hand the stream to @p write; false after a
 *  diagnostic when the file cannot be opened. */
template <typename Write>
bool
writeFile(const std::string &path, Write write)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "cannot write '%s'\n", path.c_str());
        return false;
    }
    write(out);
    return true;
}

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
                const Invocation &inv, double clock_hz)
{
    if (!inv.metricsFile.empty()) {
        sim::collectReport(m); // publish machine.* gauges
        if (!writeFile(inv.metricsFile, [&](std::ostream &out) {
                m.metrics().writeJson(out);
            }))
            return kExitRuntime;
        std::printf("  metrics         wrote %s\n",
                    inv.metricsFile.c_str());
    }
    if (tracer) {
        if (!writeFile(inv.traceFile, [&](std::ostream &out) {
                tracer->write(out, inv.traceFormat, clock_hz / 1e6);
            }))
            return kExitRuntime;
        std::printf(
            "  trace           wrote %s (%llu events, %llu "
            "dropped)\n",
            inv.traceFile.c_str(),
            static_cast<unsigned long long>(tracer->size()),
            static_cast<unsigned long long>(tracer->dropped()));
    }
    return 0;
}

/**
 * Run a pairwise exchange of [words] elements on the simulator,
 * optionally under an injected fault load and a chaos campaign.
 * Static mode runs the --transport program in one shot through
 * rt::SimBackend; --adaptive slices the exchange into rounds under
 * the closed-loop resilience controller.
 */
int
runSim(const Invocation &inv)
{
    auto xy = parseOperation(inv.args[0]);
    std::uint64_t words = 1024;
    if (!xy || !countArg(inv, "word count", words))
        return kExitUsage;
    const std::string &xqy = inv.args[0];
    P x = xy->first, y = xy->second;

    auto cfg = sim::configFor(inv.machine);
    cfg.faults = inv.faults;
    cfg.chaos = inv.chaos;
    // 1 = serial: run the plain event loop, no engine constructed.
    cfg.threads = inv.threads == 1 ? 0 : inv.threads;
    auto program = core::buildProgram(inv.machine, inv.style, x, y);
    if (!program)
        return usage("no " + inv.style + " program for " + xqy);
    if (inv.reliable)
        program = core::withReliability(std::move(*program));
    // Refuse outage targets the machine lacks and buffers that cannot
    // fit node RAM before building anything. Every adaptive round
    // builds a fresh reliable chained or buffer-packing layer.
    std::string unfit = sim::machineConfigError(cfg);
    if (unfit.empty())
        unfit = inv.adaptive
                    ? rt::exchangeFitError(cfg, x, y, words,
                                           {1, true, inv.rounds})
                    : rt::exchangeFitError(cfg, *program, words);
    if (!unfit.empty()) {
        std::fprintf(stderr, "%s\n", unfit.c_str());
        return kExitUsage;
    }
    rt::SimBackend backend(cfg);
    sim::Machine m(backend.config());

    std::unique_ptr<obs::Tracer> tracer;
    if (!inv.traceFile.empty()) {
        tracer = std::make_unique<obs::Tracer>(1 << 20);
        m.setTracer(tracer.get());
    }
    const sim::Topology &topo = m.topology();

    // An --adaptive run fills the report's common lines the way a
    // SimBackend run does.
    rt::SimRun run;
    rt::AdaptiveResult ar;
    std::uint64_t planned_out = 0;
    if (inv.adaptive) {
        auto op = rt::pairExchange(m, x, y, words);
        planned_out = rt::dropDeadFlows(op, topo, 0);
        rt::ResilienceOptions options;
        rt::ResilienceController controller(cfg, x, y, options);
        ar = rt::runAdaptiveExchange(m, op, controller, inv.rounds);
        run.layerName = "adaptive (" + options.initialStyle + " -> " +
                        ar.finalStyle + "), " +
                        std::to_string(ar.rounds) + " rounds";
        run.result.makespan = ar.makespan;
        run.result.degraded = ar.degraded;
        run.perNodeMBps = m.toMBps(op.maxBytesPerSender(), ar.makespan);
        run.corruptWords = ar.corruptWords;
    } else {
        run = backend.exchangeOn(m, *program, words);
    }

    const rt::ReliableStats &t = run.transport;
    sim::Cycles end = m.events().now();
    const auto &n = m.network().stats();
    std::printf("%s %s, %llu words/node, faults: %s",
                cfg.name.c_str(), xqy.c_str(),
                static_cast<unsigned long long>(words),
                inv.faults.summary().c_str());
    if (inv.adaptive || inv.chaos.any())
        std::printf(", chaos: %s", inv.chaos.summary().c_str());
    std::printf("\n");
    std::printf("  layer           %s%s\n", run.layerName.c_str(),
                run.result.degraded ? "  [DEGRADED to packing]" : "");
    // Engine diagnostics go to stderr: the stdout report is part of
    // the determinism contract and must not vary with --threads.
    // Adaptive runs are serial.
    if (const auto *pe = inv.adaptive ? nullptr : m.parallelEngine())
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
                run.perNodeMBps);
    std::printf("  makespan        %llu cycles\n",
                static_cast<unsigned long long>(run.result.makespan));
    std::printf("  wire bytes      %llu\n",
                static_cast<unsigned long long>(n.wireBytes));
    if (inv.adaptive) {
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
    } else {
        if (program->reliable)
            std::printf("  data packets    %llu  (+%llu retransmits)\n",
                        static_cast<unsigned long long>(t.dataPackets),
                        static_cast<unsigned long long>(t.retransmits));
        std::printf("  dropped/corrupt %llu/%llu on the wire\n",
                    static_cast<unsigned long long>(n.droppedPackets),
                    static_cast<unsigned long long>(n.corruptedPackets));
    }
    if (topo.anyOutages())
        std::printf("  outages         %d links / %d nodes down, "
                    "%llu packets rerouted (%llu links detoured), "
                    "%llu unroutable\n",
                    topo.downedLinks(end), topo.downedNodes(end),
                    static_cast<unsigned long long>(n.reroutedPackets),
                    static_cast<unsigned long long>(n.reroutedLinks),
                    static_cast<unsigned long long>(n.unroutablePackets));
    if (run.lostWords > 0)
        std::printf("  lost to outages %llu words (dead endpoints)\n",
                    static_cast<unsigned long long>(run.lostWords));
    if (planned_out > 0 || ar.skippedFlows > 0)
        std::printf("  lost to outages %llu words planned out, "
                    "%d flow(s) unverifiable (dead endpoint)\n",
                    static_cast<unsigned long long>(planned_out),
                    ar.skippedFlows);
    std::printf("  delivery        %s\n",
                run.corruptWords == 0 ? "bit-exact" : "CORRUPTED");

    if (int rc = writeObsOutputs(m, tracer.get(), inv, cfg.clockHz))
        return rc;

    // Abandoned delivery that was not absorbed by a degradation path
    // is a silent data-loss bug; fail loudly and name the channels.
    if (t.abandoned > 0 && !run.result.degraded) {
        std::fprintf(stderr,
                     "ERROR: reliable transport abandoned %llu "
                     "packet(s) without degradation; affected "
                     "channels:\n",
                     static_cast<unsigned long long>(t.abandoned));
        for (const auto &[src, dst] : t.abandonedChannels)
            std::fprintf(stderr, "  %d -> %d\n", src, dst);
        return kExitRuntime;
    }
    return run.corruptWords == 0 ? kExitOk : kExitRuntime;
}

/** Print a validate or sweep report, as text or --json, and write
 *  its JSON to the --out file (0 = ok, else the IO exit code). */
int
printReport(const Invocation &inv, const std::string &text,
            const std::string &json)
{
    std::printf("%s", inv.json ? json.c_str() : text.c_str());
    if (inv.outFile.empty())
        return kExitOk;
    if (!writeFile(inv.outFile,
                   [&](std::ostream &out) { out << json; }))
        return kExitRuntime;
    std::printf("wrote %s\n", inv.outFile.c_str());
    return kExitOk;
}

/**
 * Cross-validate the two backends over every machine x style x legal
 * pattern-pair cell. Returns non-zero when any cell misses the
 * tolerance, so CI can gate on it.
 */
int
runValidate(const Invocation &inv)
{
    rt::ValidationOptions options;
    // 1 = serial: run inline, no workers spawned.
    options.threads = inv.threads == 1 ? 0 : inv.threads;
    rt::ValidationReport report = rt::crossValidate(options);
    if (int rc = printReport(inv, rt::formatValidation(report),
                             rt::validationJson(report)))
        return rc;
    return report.allPass ? kExitOk : kExitRuntime;
}

/**
 * Run a sweep grid on the work-stealing farm. Results are merged in
 * canonical cell order, so the rendered table/JSON is byte-identical
 * for every --threads value.
 */
int
runSweep(const Invocation &inv)
{
    std::string error;
    auto grid = sweep::Grid::parse(inv.grid, &error);
    if (!grid) {
        std::fprintf(stderr, "bad --grid: %s\n", error.c_str());
        return kExitUsage;
    }
    sweep::Farm farm({inv.threads == 1 ? 0 : inv.threads, 0});
    std::vector<sweep::CellResult> results =
        sweep::runGrid(*grid, farm);
    return printReport(inv, sweep::formatResults(results),
                       sweep::resultsJson(results));
}

/**
 * The crash-calm planning service: answer NDJSON requests from stdin
 * on stdout until EOF, one response line per request line, in
 * arrival order (docs/SERVICE.md). Blank lines are ignored. Exit is
 * 0 after a clean drain -- per-request failures travel in-band as
 * "rejected"/"error" responses, never as a dropped line.
 */
int
runServe(const Invocation &inv)
{
    svc::PlanService service(
        inv.serve, [](const svc::ServiceResponse &resp) {
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
    if (!inv.metricsFile.empty() &&
        !writeFile(inv.metricsFile, [&](std::ostream &out) {
            service.metrics().writeJson(out);
        }))
        return kExitRuntime;
    return kExitOk;
}

int
runEval(const Invocation &inv)
{
    auto parsed = core::parse(inv.args[0]);
    if (auto *err = std::get_if<core::ParseError>(&parsed)) {
        std::fprintf(stderr, "parse error at %zu: %s\n",
                     err->position, err->message.c_str());
        return kExitUsage;
    }
    // A free formula, not a program: rate it on the paper's table.
    auto table = core::paperTable(inv.machine);
    core::EvalContext ctx;
    ctx.table = &table;
    ctx.congestion = core::paperCaps(inv.machine).defaultCongestion;
    std::printf("%s", core::explain(std::get<core::ExprPtr>(parsed),
                                    ctx)
                          .c_str());
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
    const core::MachineCaps &caps = core::paperCaps(query.machine);
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
                    p.program.styleKey.c_str(), p.estimate,
                    p.program.format().c_str(),
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
                p.key.c_str(), p.effective, p.model.asymptotic(),
                static_cast<unsigned long long>(
                    p.model.halfPowerPoint()),
                i + 1 < sized.size() ? "," : "");
        }
        std::printf("  ]\n");
    }
    std::printf("}\n");
}

int
runPlan(const Invocation &inv)
{
    auto xy = parseOperation(inv.args[0]);
    util::Bytes bytes = 0;
    if (!xy || !countArg(inv, "message size", bytes))
        return kExitUsage;
    core::PlanQuery query{inv.machine, xy->first, xy->second, 0.0};
    std::unique_ptr<ScaleInfo> scale;
    if (inv.nodes) {
        // Large-N planning: rebuild the topology -- just the
        // topology, never a machine -- at the requested node count
        // and derive the congestion of the pair-exchange pattern
        // from static link-load analysis. The demand bytes cancel in
        // the factor, so one word per demand is enough.
        scale = std::make_unique<ScaleInfo>();
        scale->nodes = inv.nodes;
        scale->topology =
            sim::configFor(inv.machine, inv.nodes).topology;
        sim::Topology topo(scale->topology);
        scale->report = topo.analyzeCongestion(
            rt::pairExchangeDemands(inv.nodes, 8));
        query.congestion = scale->report.factor;
    }
    auto plans = core::plan(query);

    // Size-aware ranking via the latency-extended model, re-ranked
    // from the same pass (so at the same congestion).
    std::vector<core::SizedPlan> sized;
    if (bytes > 0)
        sized = core::planForSize(plans, bytes);

    if (inv.json) {
        printPlanJson(query, plans, bytes, sized, scale.get());
        return kExitOk;
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
                        p.key.c_str(), p.effective,
                        p.model.asymptotic(),
                        static_cast<unsigned long long>(
                            p.model.halfPowerPoint()));
        }
    }
    return kExitOk;
}

/** A fault, chaos or service-chaos spec, through its tryParse. */
template <typename Spec>
std::string
parseSpec(const std::string &text, Spec &out)
{
    std::string error;
    std::optional<Spec> parsed = Spec::tryParse(text, &error);
    if (!parsed)
        return error.empty() ? "malformed spec" : error;
    out = std::move(*parsed);
    return "";
}

/** Parser of a flag that just records itself in @p Field: a switch
 *  sets its bool, any other flag stores its text. */
template <auto Field>
std::string
store(const std::string &text, Invocation &inv)
{
    if constexpr (std::is_same_v<decltype(inv.*Field), bool &>)
        inv.*Field = true;
    else
        inv.*Field = text;
    return "";
}

/**
 * One flag: its name, the subcommands that take it, the placeholder
 * of its value (nullptr for a switch) and its parser. The parser gets
 * the text after '=' (empty for a switch) and returns a diagnostic,
 * empty on success.
 */
struct Flag
{
    const char *name;
    unsigned scope;
    const char *value;
    std::string (*parse)(const std::string &text, Invocation &inv);
};

const Flag kFlags[] = {
    {"--faults", kSim, "SPEC",
     [](const std::string &t, Invocation &inv) {
         return parseSpec(t, inv.faults);
     }},
    {"--chaos", kSim, "SPEC",
     [](const std::string &t, Invocation &inv) {
         return parseSpec(t, inv.chaos);
     }},
    {"--adaptive", kSim, nullptr, store<&Invocation::adaptive>},
    {"--rounds", kSim, "N",
     [](const std::string &t, Invocation &inv) {
         return util::parseCount(t, 1, 1 << 20, inv.rounds);
     }},
    {"--trace", kSim, "FILE", store<&Invocation::traceFile>},
    {"--trace-format", kSim, "chrome|jsonl",
     [](const std::string &t, Invocation &inv) {
         return obs::parseTraceFormat(t, inv.traceFormat)
                    ? std::string()
                    : std::string("expected chrome or jsonl");
     }},
    {"--metrics-out", kSim | kServe, "FILE",
     store<&Invocation::metricsFile>},
    {"--threads", kSim | kValidate | kSweep, "N",
     [](const std::string &t, Invocation &inv) {
         std::string error;
         sweep::parseThreadCount(t.c_str(), inv.threads, error);
         return error;
     }},
    {"--transport", kSim, "reliable|raw|packing",
     [](const std::string &t, Invocation &inv) {
         if (t != "reliable" && t != "raw" && t != "packing")
             return std::string("expected reliable, raw or packing");
         inv.style = t == "packing" ? "buffer-packing" : "chained";
         inv.reliable = t == "reliable";
         return std::string();
     }},
    {"--json", kPlan | kValidate | kSweep, nullptr,
     store<&Invocation::json>},
    {"--out", kValidate | kSweep, "FILE", store<&Invocation::outFile>},
    {"--grid", kSweep, "SPEC", store<&Invocation::grid>},
    {"--nodes", kPlan, "N",
     [](const std::string &t, Invocation &inv) {
         if (!util::parseCount(t, 8, 8192, inv.nodes).empty() ||
             !sim::validScaleNodes(inv.nodes))
             return std::string("expected a power of two in [8, 8192]");
         return std::string();
     }},
    {"--workers", kServe, "N",
     [](const std::string &t, Invocation &inv) {
         return util::parseCount(t, 0, 256, inv.serve.workers);
     }},
    {"--queue", kServe, "N",
     [](const std::string &t, Invocation &inv) {
         return util::parseCount(t, 1, 1 << 20,
                                 inv.serve.queueCapacity);
     }},
    {"--cache", kServe, "N",
     [](const std::string &t, Invocation &inv) {
         return util::parseCount(t, 1, 1 << 20,
                                 inv.serve.cacheCapacity);
     }},
    {"--default-budget", kServe, "N",
     [](const std::string &t, Invocation &inv) {
         return util::parseCount(t, 0, UINT64_MAX,
                                 inv.serve.defaultBudget);
     }},
    {"--svc-chaos", kServe, "SPEC",
     [](const std::string &t, Invocation &inv) {
         return parseSpec(t, inv.serve.chaos);
     }},
};

/**
 * One subcommand: its name (empty for plan, whose xQy stands where
 * the name would), its scope bit, whether a machine comes first, how
 * many positionals follow the name, its synopsis and its runner.
 */
struct Command
{
    const char *name;
    unsigned bit;
    bool machineFirst;
    std::size_t minArgs, maxArgs;
    const char *synopsis;
    int (*run)(const Invocation &inv);
};

const Command kCommands[] = {
    {"", kPlan, true, 1, 2, "<xQy> [bytes]", runPlan},
    {"eval", kEval, true, 1, 1, "eval <formula>", runEval},
    {"table", kTable, true, 0, 0, "table",
     [](const Invocation &inv) {
         printTable(inv.machine, false);
         return kExitOk;
     }},
    {"sim-table", kSimTable, true, 0, 0, "sim-table",
     [](const Invocation &inv) {
         printTable(inv.machine, true);
         return kExitOk;
     }},
    {"sim", kSim, true, 1, 2, "sim <xQy> [words]", runSim},
    {"validate", kValidate, false, 0, 0, "validate", runValidate},
    {"sweep", kSweep, false, 0, 0, "sweep --grid=SPEC", runSweep},
    {"serve", kServe, false, 0, 0, "serve", runServe},
};

/** Print @p error, then the synopsis of every subcommand with the
 *  flags it takes; returns the usage exit code. */
int
usage(const std::string &error)
{
    if (!error.empty())
        std::fprintf(stderr, "%s\n", error.c_str());
    const char *lead = "usage: ";
    for (const Command &cmd : kCommands) {
        std::string line = std::string(lead) + "ctplan " +
                           (cmd.machineFirst ? "<t3d|paragon> " : "") +
                           cmd.synopsis;
        lead = "       ";
        for (const Flag &flag : kFlags) {
            // A required flag is already spelled out in the synopsis.
            if (!(flag.scope & cmd.bit) ||
                std::strstr(cmd.synopsis, flag.name))
                continue;
            std::string token = std::string(" [") + flag.name +
                                (flag.value ? "=" : "") +
                                (flag.value ? flag.value : "") + "]";
            if (line.size() + token.size() > 76) {
                std::fprintf(stderr, "%s\n", line.c_str());
                line = "          ";
            }
            line += token;
        }
        std::fprintf(stderr, "%s\n", line.c_str());
    }
    std::fputs("  ctplan t3d 1Q64\n"
               "  ctplan t3d 1Q1 2048\n"
               "  ctplan t3d 1Q64 --nodes=4096\n"
               "  ctplan paragon wQw\n"
               "  ctplan sweep --grid=nodes:64..8192\n"
               "  ctplan t3d eval '1C1 o (1S0 || Nd || 0D1) o 1C64'\n"
               "  ctplan t3d sim 1Q4 8192 --faults=drop=0.01,seed=7\n"
               "  ctplan t3d sim 1Q4 4096 --trace=out.json "
               "--trace-format=chrome\n"
               "  ctplan t3d sim 1Q1 8192 --faults=drop=0.02 "
               "--adaptive\n"
               "  ctplan t3d sim 1Q1 8192 "
               "--chaos='ramp:drop:0:0.03:0:400000;seed:7'\n"
               "  ctplan validate --out=BENCH_model_vs_sim.json\n"
               "  ctplan sweep --grid=fig4 --threads=8\n"
               "  ctplan serve --workers=4 "
               "--svc-chaos='seed:7;stall:0.1:5'\n",
               stderr);
    return kExitUsage;
}

/**
 * The subcommand the leading positionals name, dropping them (the
 * machine and the name) from inv.args; nullptr when the first
 * positional is neither a machine nor a machine-less subcommand.
 */
const Command *
findCommand(Invocation &inv)
{
    std::vector<std::string> &args = inv.args;
    for (const Command &cmd : kCommands)
        if (!cmd.machineFirst && args[0] == cmd.name) {
            args.erase(args.begin());
            return &cmd;
        }
    if (args[0] == "t3d")
        inv.machine = core::MachineId::T3d;
    else if (args[0] == "paragon")
        inv.machine = core::MachineId::Paragon;
    else
        return nullptr;
    args.erase(args.begin());
    for (const Command &cmd : kCommands)
        if (cmd.machineFirst && *cmd.name && !args.empty() &&
            args[0] == cmd.name) {
            args.erase(args.begin());
            return &cmd;
        }
    return &kCommands[0]; // plan: the xQy is the first positional
}

} // namespace

int
main(int argc, char **argv)
{
    // Flags may appear anywhere; everything else is a positional.
    Invocation inv;
    std::vector<std::string> flags;
    for (int i = 1; i < argc; ++i)
        (std::strncmp(argv[i], "--", 2) == 0 ? flags : inv.args)
            .emplace_back(argv[i]);
    if (inv.args.empty())
        return usage();
    const Command *cmd = findCommand(inv);
    if (!cmd)
        return usage("unknown machine or subcommand '" + inv.args[0] +
                     "'");
    if (inv.args.size() < cmd->minArgs)
        return usage(std::string("missing argument: ") + cmd->synopsis);
    if (inv.args.size() > cmd->maxArgs)
        return usage("unexpected argument '" +
                     inv.args[cmd->maxArgs] + "'");

    // Silently ignoring a mistyped, repeated or misplaced flag would
    // run a different experiment than the user asked for.
    for (const std::string &arg : flags) {
        std::size_t eq = arg.find('=');
        std::string name = arg.substr(0, eq);
        std::string value =
            eq == std::string::npos ? "" : arg.substr(eq + 1);
        const Flag *flag = nullptr;
        for (const Flag &f : kFlags)
            if (name == f.name)
                flag = &f;
        if (!flag)
            return usage("unknown flag '" + arg + "'");
        if (!inv.given.insert(name).second)
            return usage("flag '" + name + "' given twice");
        if (flag->value && value.empty())
            return usage("flag '" + name + "' requires a value (" +
                         name + "=" + flag->value + ")");
        if (!flag->value && eq != std::string::npos)
            return usage("flag '" + name + "' takes no value");
        if (!(flag->scope & cmd->bit))
            return usage("flag '" + name + "' does not apply to " +
                         (*cmd->name ? cmd->name : "plan"));
        std::string error = flag->parse(value, inv);
        if (!error.empty())
            return usage("bad " + name + " '" + value + "': " + error);
    }

    if (cmd->bit == kSweep && inv.grid.empty())
        return usage("sweep requires --grid=SPEC");
    if (inv.given.contains("--rounds") && !inv.adaptive)
        return usage("--rounds requires --adaptive");
    if (!inv.reliable &&
        (inv.given.contains("--faults") ||
         inv.given.contains("--chaos") || inv.adaptive))
        return usage("--transport=raw/packing runs without the "
                     "reliable transport and cannot absorb "
                     "--faults/--chaos/--adaptive");
    return cmd->run(inv);
}
