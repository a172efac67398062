/**
 * @file
 * The `kernels` workload: the paper's §6 application kernels and the
 * Figure 2 irregular gather on two 64-node machines, each through
 * the buffer-packing, chained and PVM message layers, one thread.
 * The simulator (event core, processor walks, memory system,
 * network) and the rt message layers do almost all the work; core,
 * svc and sweep do none, so a change to them should read "no change"
 * here.
 *
 * The seed chooses the gather's permutation X. Every delivery is
 * verified bit-exact; the digest covers each run's makespan and the
 * machine.* and sim.net.* registry values.
 */

#include <functional>
#include <memory>
#include <optional>

#include "apps/fem.h"
#include "apps/irregular.h"
#include "apps/sor.h"
#include "apps/transpose.h"
#include "core/style_registry.h"
#include "rt/sim_backend.h"
#include "sim/report.h"
#include "workloads.h"

namespace hostbench {

namespace {

using namespace ct;

enum class Kernel { Transpose, Fem, Sor, Gather };

constexpr Kernel kKernels[] = {Kernel::Transpose, Kernel::Fem, Kernel::Sor,
                               Kernel::Gather};

const char *
kernelName(Kernel k)
{
    switch (k) {
    case Kernel::Transpose: return "transpose";
    case Kernel::Fem: return "fem";
    case Kernel::Sor: return "sor";
    case Kernel::Gather: return "gather";
    }
    return "?";
}

struct MachineSpec
{
    core::MachineId id;
    sim::MachineConfig cfg;
    /** Each machine's preferred transpose: strided stores on the
     *  T3D, strided loads on the Paragon (§6.1). */
    apps::TransposeVariant transpose;
};

std::vector<MachineSpec>
machines()
{
    return {{core::MachineId::T3d, sim::t3dConfig({4, 4, 4}),
             apps::TransposeVariant::StridedStores},
            {core::MachineId::Paragon, sim::paragonConfig({8, 8}),
             apps::TransposeVariant::StridedLoads}};
}

/** A message layer and the span name of its run(). */
struct Layer
{
    core::Style style;
    const char *runSpan;
    std::unique_ptr<rt::MessageLayer> layer;
};

constexpr std::pair<core::Style, const char *> kStyles[] = {
    {core::Style::BufferPacking, "run.packing"},
    {core::Style::Chained, "run.chained"},
    {core::Style::Pvm, "run.pvm"},
};

/** The three layers of @p id, lowered from their programs (the
 *  lowering shape does not depend on the patterns). */
std::vector<Layer>
layersFor(Trace *trace, core::MachineId id)
{
    std::vector<Layer> out;
    for (auto [style, run_span] : kStyles) {
        std::optional<core::TransferProgram> program;
        {
            Span s(trace, "core", "build_program");
            program = core::buildProgram(id, style,
                                         core::AccessPattern::contiguous(),
                                         core::AccessPattern::contiguous());
        }
        if (!program)
            continue;
        Span s(trace, "rt", "lower");
        out.push_back({style, run_span, rt::lowerProgram(*program)});
    }
    return out;
}

/** A created kernel: its communication step and verifier. */
struct Prepared
{
    rt::CommOp op;
    std::function<std::uint64_t(sim::Machine &)> verify;
};

Prepared
prepare(Kernel kernel, sim::Machine &m, const MachineSpec &spec,
        std::uint64_t seed)
{
    switch (kernel) {
    case Kernel::Transpose: {
        apps::TransposeConfig cfg;
        cfg.n = 1024;
        cfg.variant = spec.transpose;
        auto w = std::make_shared<apps::TransposeWorkload>(
            apps::TransposeWorkload::create(m, cfg));
        w->fillInput(m);
        return {w->op(), [w](sim::Machine &mm) { return w->verify(mm); }};
    }
    case Kernel::Fem: {
        apps::FemConfig cfg;
        cfg.nx = 96;
        cfg.ny = 96;
        cfg.nz = 28;
        auto w = apps::FemWorkload::create(m, cfg);
        rt::CommOp op = w.op();
        rt::seedSources(m, op);
        return {op, [op](sim::Machine &mm) {
                    return rt::verifyDelivery(mm, op);
                }};
    }
    case Kernel::Sor: {
        apps::SorConfig cfg;
        cfg.n = 256;
        auto w = std::make_shared<apps::SorWorkload>(
            apps::SorWorkload::create(m, cfg));
        w->fillInterior(m);
        return {w->op(), [w](sim::Machine &mm) { return w->verify(mm); }};
    }
    case Kernel::Gather: {
        apps::IrregularConfig cfg;
        cfg.n = 1 << 18;
        cfg.seed = seed;
        auto w = std::make_shared<apps::IrregularGatherWorkload>(
            apps::IrregularGatherWorkload::create(m, cfg));
        return {w->op(), [w](sim::Machine &mm) { return w->verify(mm); }};
    }
    }
    return {};
}

struct Setup
{
    std::vector<MachineSpec> specs;
    std::vector<std::vector<Layer>> layers; ///< per machine
};

/** Host time and simulated work of one kernel run. */
struct RunStats
{
    std::size_t machine = 0;
    Kernel kernel = Kernel::Transpose;
    core::Style style = core::Style::BufferPacking;
    double runS = 0.0;
    double verifyS = 0.0;
    double buildS = 0.0;
    double createS = 0.0;
    double payloadMB = 0.0;
    bool corrupt = false;
    std::uint64_t events = 0;
    std::uint64_t peakPending = 0;
    std::uint64_t dramAccesses = 0;
    std::uint64_t cacheAccesses = 0;
    std::uint64_t busTransactions = 0;
    std::uint64_t packets = 0;
    std::uint64_t wireBytes = 0;
    /** Digest of this run's simulated observables. */
    std::uint64_t digest = 0;
};

std::uint64_t
gauge(const obs::MetricsRegistry &reg, const char *name)
{
    return static_cast<std::uint64_t>(reg.gaugeValue(name));
}

/**
 * Build a fresh machine, create the kernel, run it through @p layer,
 * verify, and read the machine's registry. @p threads > 1 runs the
 * conservative parallel engine.
 */
RunStats
runKernel(Trace *trace, const Setup &setup, std::size_t machine,
          Kernel kernel, const Layer &layer, std::uint64_t seed,
          int threads = 0)
{
    const MachineSpec &spec = setup.specs[machine];
    RunStats st;
    st.machine = machine;
    st.kernel = kernel;
    st.style = layer.style;
    Span op(trace, "bench", "kernel", trace ? trace->nextOp() : 0);
    sim::MachineConfig cfg = spec.cfg;
    cfg.threads = threads;
    std::unique_ptr<sim::Machine> m;
    {
        Span s(trace, "sim", "machine.build");
        m = std::make_unique<sim::Machine>(cfg);
        st.buildS = s.stop();
    }
    Prepared prepared;
    {
        Span s(trace, "apps", "create");
        prepared = prepare(kernel, *m, spec, seed);
        st.createS = s.stop();
    }
    if (threads > 1) {
        m->setParallelEnabled(layer.layer->parallelSafe());
        m->setParallelLookahead(
            layer.layer->parallelLookahead(*m, prepared.op));
    }
    rt::RunResult result;
    {
        Span s(trace, "rt", layer.runSpan);
        result = layer.layer->run(*m, prepared.op);
        st.runS = s.stop();
    }
    {
        Span s(trace, "rt", "verify");
        st.corrupt = prepared.verify(*m) != 0;
        st.verifyS = s.stop();
    }
    {
        Span s(trace, "sim", "report");
        sim::collectReport(*m);
    }
    const obs::MetricsRegistry &reg = m->metrics();
    st.payloadMB = static_cast<double>(result.payloadBytes) / 1e6;
    st.events = m->events().eventsExecuted();
    st.peakPending = gauge(reg, "machine.events.peak_pending");
    st.dramAccesses = gauge(reg, "machine.dram.reads") +
                      gauge(reg, "machine.dram.writes");
    st.cacheAccesses = gauge(reg, "machine.cache.load_hits") +
                       gauge(reg, "machine.cache.load_misses");
    st.busTransactions = gauge(reg, "machine.bus.transactions");
    st.packets = reg.counterValue("sim.net.packets");
    st.wireBytes = reg.counterValue("sim.net.wire_bytes");

    Digest d;
    d.add(std::string_view(kernelName(kernel)));
    d.add(std::string_view(spec.cfg.name));
    d.add(std::string_view(layer.runSpan));
    d.add(static_cast<std::uint64_t>(result.makespan));
    d.add(static_cast<std::uint64_t>(result.payloadBytes));
    for (const std::string &name : reg.names()) {
        if (name.rfind("machine.", 0) != 0 && name.rfind("sim.net.", 0) != 0)
            continue;
        d.add(std::string_view(name));
        d.add(reg.kindOf(name) == obs::MetricKind::Gauge
                  ? static_cast<std::uint64_t>(reg.gaugeValue(name))
                  : reg.counterValue(name));
    }
    st.digest = d.value();
    return st;
}

/** One pass: every machine x kernel x layer, in a fixed order. */
struct Pass
{
    std::vector<RunStats> runs;
    double wallS = 0.0;
    Digest digest;

    double payloadMB() const
    {
        double mb = 0.0;
        for (const RunStats &r : runs)
            mb += r.payloadMB;
        return mb;
    }
    std::uint64_t corrupt() const
    {
        std::uint64_t n = 0;
        for (const RunStats &r : runs)
            n += r.corrupt ? 1 : 0;
        return n;
    }
};

Setup
makeSetup(Trace *trace)
{
    Setup s;
    s.specs = machines();
    for (const MachineSpec &spec : s.specs)
        s.layers.push_back(layersFor(trace, spec.id));
    return s;
}

/** One pass; with @p probes, a host-speed probe runs before each run
 *  and its time is appended there. */
Pass
runPass(Trace *trace, const Setup &setup, std::uint64_t seed,
        std::vector<double> *probes = nullptr)
{
    Pass pass;
    Clock::time_point t0 = Clock::now();
    for (std::size_t mi = 0; mi < setup.specs.size(); ++mi)
        for (Kernel kernel : kKernels)
            for (const Layer &layer : setup.layers[mi]) {
                if (probes)
                    probes->push_back(probeSeconds(1));
                pass.runs.push_back(
                    runKernel(trace, setup, mi, kernel, layer, seed));
                pass.digest.add(pass.runs.back().digest);
            }
    pass.wallS = secondsSince(t0);
    return pass;
}

/**
 * Warm-up: one packing run of every kernel on every machine, so the
 * allocator, page tables and code paths of a full pass are warm
 * before the first timed run.
 */
Pass
warmUp(const Setup &setup, std::uint64_t seed)
{
    Pass pass;
    for (std::size_t mi = 0; mi < setup.specs.size(); ++mi)
        for (Kernel kernel : kKernels)
            pass.runs.push_back(runKernel(nullptr, setup, mi, kernel,
                                          setup.layers[mi].front(), seed));
    return pass;
}

double
medianOf(const std::vector<RunStats> &runs, double RunStats::*field)
{
    std::vector<double> v;
    for (const RunStats &r : runs)
        v.push_back(r.*field * 1e3);
    return median(v);
}

/** Median run() time in ms of the runs through @p style's layer. */
Metric
runMs(const char *name, const std::vector<RunStats> &runs, core::Style style)
{
    std::vector<double> v;
    for (const RunStats &r : runs)
        if (r.style == style)
            v.push_back(r.runS * 1e3);
    return {name, median(v), "ms", v.size()};
}

} // namespace

Outcome
runKernels(const RunOptions &options)
{
    Outcome out;

    // Set up kSetups times (layers lowered, then a warm-up pass) and
    // keep the last; setup_s is the median.
    std::vector<double> setup_times;
    std::optional<Setup> setup;
    for (int i = 0; i < kSetups; ++i) {
        setup.reset(); // the last set-up's teardown is not timed
        Clock::time_point t0 = Clock::now();
        setup = makeSetup(nullptr);
        Pass warm = warmUp(*setup, options.seed);
        out.attempted += warm.runs.size();
        out.failed += warm.corrupt();
        setup_times.push_back(secondsSince(t0));
    }

    if (!options.trace) {
        // Each run of a pass is timed on every pass; the rate divides
        // a pass's payload by the sum of each run's median run + verify
        // time, so a burst of host noise during one pass moves it
        // little. A host-speed probe before every run gives the rate
        // per probe time as well.
        std::vector<std::vector<double>> run_s;
        std::vector<double> run_ms, pass_rates, probes;
        double payload_mb = 0.0;
        Clock::time_point t0 = Clock::now();
        std::string digest;
        do {
            Pass pass = runPass(nullptr, *setup, options.seed, &probes);
            run_s.resize(pass.runs.size());
            for (std::size_t i = 0; i < pass.runs.size(); ++i) {
                const RunStats &r = pass.runs[i];
                run_s[i].push_back(r.runS + r.verifyS);
                run_ms.push_back((r.runS + r.verifyS) * 1e3);
            }
            payload_mb = pass.payloadMB();
            double pass_s = 0.0;
            for (const RunStats &r : pass.runs)
                pass_s += r.runS + r.verifyS;
            pass_rates.push_back(payload_mb / pass_s);
            out.attempted += pass.runs.size();
            out.failed += pass.corrupt();
            if (!digest.empty() && digest != pass.digest.hex())
                out.correct = false; // same inputs, different result
            digest = pass.digest.hex();
        } while (secondsSince(t0) < options.seconds);
        double median_pass_s = 0.0;
        for (const std::vector<double> &times : run_s)
            median_pass_s += median(times);
        out.digest = digest;
        out.metrics = {
            {"payload_MB_per_host_s", payload_mb / median_pass_s, "MB/s",
             run_ms.size()},
            {"payload_MB_per_probe",
             payload_mb / median_pass_s * median(probes), "MB/probe",
             run_ms.size()},
            {"probe_ms", median(probes) * 1e3, "ms", probes.size()},
            {"spread_within_run", iqrShare(pass_rates), "ratio",
             pass_rates.size()},
            {"kernel_ms_p50", percentile(run_ms, 50), "ms", run_ms.size()},
            {"kernel_ms_p99", percentile(run_ms, 99), "ms", run_ms.size()},
            {"setup_s", median(setup_times), "s", setup_times.size()},
        };
        out.correct = out.correct && out.failed == 0;
        return out;
    }

    // Traced run: one untraced pass as the overhead baseline, then the
    // same pass traced, then the T3D chained and packing runs again on
    // the four-thread parallel engine.
    Pass base = runPass(nullptr, *setup, options.seed);
    Trace trace(kTraceCapacity);
    Clock::time_point t0 = Clock::now();
    Span root(&trace, "bench", "kernels", 0, 0);
    Setup traced_setup = makeSetup(&trace);
    Pass pass = runPass(&trace, traced_setup, options.seed);
    root.stop();
    double traced_wall = secondsSince(t0);

    out.attempted += base.runs.size() + pass.runs.size();
    out.failed += base.corrupt() + pass.corrupt();
    out.digest = pass.digest.hex();
    if (base.digest.hex() != pass.digest.hex())
        out.correct = false;

    // PDES: serial vs threads=4 wall on the T3D chained and packing
    // runs, which must simulate the same work.
    double serial_s = 0.0, parallel_s = 0.0;
    int pdes_runs = 0;
    for (const RunStats &serial : base.runs) {
        if (serial.machine != 0 || serial.style == core::Style::Pvm)
            continue;
        const Layer *layer = nullptr;
        for (const Layer &l : setup->layers[0])
            if (l.style == serial.style)
                layer = &l;
        RunStats par = runKernel(nullptr, *setup, 0, serial.kernel, *layer,
                                 options.seed, 4);
        out.attempted += 1;
        ++pdes_runs;
        if (par.corrupt || par.digest != serial.digest) {
            out.failed += 1;
            out.correct = false;
        }
        serial_s += serial.runS;
        parallel_s += par.runS;
    }

    std::vector<Metric> &m = out.metrics;
    std::uint64_t events = 0, peak = 0, dram = 0, cache = 0, bus = 0,
                  packets = 0, wire = 0;
    double run_s = 0.0;
    for (const RunStats &r : pass.runs) {
        events += r.events;
        peak = std::max(peak, r.peakPending);
        dram += r.dramAccesses;
        cache += r.cacheAccesses;
        bus += r.busTransactions;
        packets += r.packets;
        wire += r.wireBytes;
        run_s += r.runS;
    }
    m.push_back({"sim.machine.build_ms", medianOf(pass.runs, &RunStats::buildS),
                 "ms", pass.runs.size()});
    m.push_back({"sim.event.executed", static_cast<double>(events), "count",
                 pass.runs.size()});
    m.push_back({"sim.event.ns_per_event",
                 events ? run_s * 1e9 / static_cast<double>(events) : 0.0,
                 "ns", events});
    m.push_back({"sim.event.peak_pending", static_cast<double>(peak), "count",
                 pass.runs.size()});
    m.push_back({"sim.mem.dram_accesses", static_cast<double>(dram), "count",
                 pass.runs.size()});
    m.push_back({"sim.mem.cache_accesses", static_cast<double>(cache),
                 "count", pass.runs.size()});
    m.push_back({"sim.mem.bus_transactions", static_cast<double>(bus),
                 "count", pass.runs.size()});
    m.push_back({"sim.net.packets", static_cast<double>(packets), "count",
                 pass.runs.size()});
    m.push_back({"sim.net.wire_bytes", static_cast<double>(wire), "B",
                 pass.runs.size()});
    m.push_back({"sim.pdes.speedup_4t",
                 parallel_s > 0.0 ? serial_s / parallel_s : 0.0, "x",
                 static_cast<std::uint64_t>(pdes_runs)});
    m.push_back(runMs("rt.run_ms.packing", pass.runs,
                      core::Style::BufferPacking));
    m.push_back(runMs("rt.run_ms.chained", pass.runs, core::Style::Chained));
    m.push_back(runMs("rt.run_ms.pvm", pass.runs, core::Style::Pvm));
    m.push_back({"rt.verify_ms", medianOf(pass.runs, &RunStats::verifyS),
                 "ms", pass.runs.size()});
    m.push_back({"apps.create_ms", medianOf(pass.runs, &RunStats::createS),
                 "ms", pass.runs.size()});
    if (!finishTrace(trace, traced_wall, pass.wallS / base.wallS,
                     options.traceOut, m))
        out.correct = false;
    out.correct = out.correct && out.failed == 0;
    return out;
}

} // namespace hostbench
