#include "svc/service.h"

#include <algorithm>
#include <string_view>
#include <thread>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "core/analytic_backend.h"
#include "core/planner.h"
#include "core/machine_params.h"
#include "core/transfer_program.h"
#include "rt/layer.h"
#include "rt/reliable_layer.h"
#include "rt/sim_backend.h"
#include "rt/validation.h"
#include "sim/machine.h"
#include "svc/json.h"
#include "util/logging.h"

namespace ct::svc {

namespace {

/** Room reserved for a response envelope: id, op, status and
 *  fidelity at their longest. */
constexpr std::size_t kEnvelopeBytes = 96;
/** Room reserved for a payload: a plan or sim answer's fields fit. */
constexpr std::size_t kPayloadBytes = 256;

/** Wire spelling of a machine id ("t3d" / "paragon"). */
const char *
wireMachineName(core::MachineId id)
{
    return id == core::MachineId::T3d ? "t3d" : "paragon";
}

/** The query's "machine" and canonical "xqy" fields, e.g. "16Qw". */
JsonWriter &
queryFields(JsonWriter &w, const Request &request)
{
    return w.field("machine", wireMachineName(request.machine))
        .openString("xqy")
        .stringPiece(request.x.label())
        .stringPiece("Q")
        .stringPiece(request.y.label())
        .closeString();
}

char
statusCode(Status s)
{
    switch (s) {
    case Status::Ok: return 'O';
    case Status::Degraded: return 'D';
    case Status::Rejected: return 'R';
    case Status::Error: return 'E';
    }
    return '?';
}

char
fidelityCode(Fidelity f)
{
    switch (f) {
    case Fidelity::Exact: return 'x';
    case Fidelity::Truncated: return 't';
    case Fidelity::Analytic: return 'a';
    case Fidelity::None: return 'n';
    }
    return '?';
}

/**
 * Cache payload encoding: status + fidelity codes, ':', then the
 * response's payload fragment. The envelope (id, op) is re-rendered
 * per request, so one cached answer serves every equivalent query.
 */
std::string
encodeCached(Status status, Fidelity fidelity, std::string_view fragment)
{
    std::string out;
    out.reserve(fragment.size() + 3);
    out += statusCode(status);
    out += fidelityCode(fidelity);
    out += ':';
    out += fragment;
    return out;
}

/** Decode a cached payload; @p fragment views into @p payload. */
bool
decodeCached(const std::string &payload, Status &status,
             Fidelity &fidelity, std::string_view &fragment)
{
    if (payload.size() < 3 || payload[2] != ':')
        return false;
    switch (payload[0]) {
    case 'O': status = Status::Ok; break;
    case 'D': status = Status::Degraded; break;
    case 'R': status = Status::Rejected; break;
    case 'E': status = Status::Error; break;
    default: return false;
    }
    switch (payload[1]) {
    case 'x': fidelity = Fidelity::Exact; break;
    case 't': fidelity = Fidelity::Truncated; break;
    case 'a': fidelity = Fidelity::Analytic; break;
    case 'n': fidelity = Fidelity::None; break;
    default: return false;
    }
    fragment = std::string_view(payload).substr(3);
    return true;
}

/** Analytic rate of @p program under the request's static fault
 *  load (the service's fast fallback tier). */
double
analyticRateFor(const Request &req,
                const core::TransferProgram &program,
                const sim::MachineConfig &cfg)
{
    core::AnalyticBackend analytic(core::paperTable(req.machine),
                                   rt::executionProfileFor(cfg));
    core::FaultEnvironment env;
    env.packetLoss =
        std::min(0.95, req.faults.drop + req.faults.corrupt);
    env.congestion = core::paperCaps(req.machine).defaultCongestion;
    env.retransmitTimeout = rt::ReliableOptions{}.retransmitTimeout;
    env.packetWords = rt::layerChunkWords;
    if (auto rate = analytic.faultedRate(program, env))
        return *rate;
    // Degenerate programs fall back to the plain steady-state rate.
    if (auto rate =
            analytic.predictRate(program, env.congestion))
        return *rate;
    return 0.0;
}

/**
 * Hand the heap memory of machines that were just destroyed back to
 * the OS. glibc keeps freed memory in the malloc arena of the thread
 * that allocated it, so without this every worker stays resident at
 * the largest simulation it ever ran, and the service's resident size
 * depends on which worker happened to miss on which sim key.
 */
void
releaseFreedMemory()
{
#if defined(__GLIBC__)
    malloc_trim(0);
#endif
}

} // namespace

PlanService::PlanService(ServiceOptions options, ResponseSink sink)
    : opts(std::move(options)), sink(std::move(sink)),
      cache(opts.cacheCapacity),
      epoch(std::chrono::steady_clock::now())
{
    if (opts.workers < 0)
        util::fatal("PlanService: workers must be >= 0");
    if (opts.queueCapacity == 0)
        util::fatal("PlanService: queueCapacity must be positive");
    if (!this->sink)
        util::fatal("PlanService: a response sink is required");

    requestsTotal = registry.counter("svc.requests.total");
    requestsByOp[static_cast<int>(Op::Plan)] =
        registry.counter("svc.requests.plan");
    requestsByOp[static_cast<int>(Op::Validate)] =
        registry.counter("svc.requests.validate");
    requestsByOp[static_cast<int>(Op::Sim)] =
        registry.counter("svc.requests.sim");
    requestsByOp[static_cast<int>(Op::Health)] =
        registry.counter("svc.requests.health");
    responsesOk = registry.counter("svc.responses.ok");
    responsesDegraded = registry.counter("svc.responses.degraded");
    responsesRejected = registry.counter("svc.responses.rejected");
    responsesError = registry.counter("svc.responses.error");
    overloadRejects = registry.counter("svc.queue.overload_rejects");
    chaosSaturationRejects =
        registry.counter("svc.queue.chaos_saturation_rejects");
    chaosStalls = registry.counter("svc.chaos.stalls");
    chaosFlips = registry.counter("svc.chaos.flips");
    deadlineTruncated = registry.counter("svc.deadline.truncated");
    deadlineAnalytic =
        registry.counter("svc.deadline.analytic_fallbacks");
    parseErrors = registry.counter("svc.parse_errors");
    queuePeakDepth = registry.gauge("svc.queue.peak_depth");
}

PlanService::~PlanService()
{
    stop();
}

void
PlanService::start()
{
    if (opts.workers <= 0)
        return;
    // Publish the pool and count the backlog under the one lock, so
    // every admitted line is posted for exactly once: lines pushed
    // before this critical section are covered by the backlog loop,
    // and any submit() that observes a non-null pool pushed (and
    // posts) after the backlog was counted.
    std::size_t backlog;
    {
        std::lock_guard<std::mutex> lock(queueMutex);
        if (pool)
            return;
        pool = std::make_unique<sweep::Farm>(
            sweep::FarmOptions{opts.workers, 0});
        backlog = queue.size();
    }
    for (std::size_t i = 0; i < backlog; ++i)
        pool->post([this](int worker) { runJob(worker); });
}

void
PlanService::submit(const std::string &line)
{
    requestsTotal.inc();

    std::uint64_t index;
    bool chaos_reject = false;
    bool overload_reject = false;
    bool post_now = false;
    {
        std::lock_guard<std::mutex> lock(queueMutex);
        index = nextSubmitIndex++;
        if (opts.chaos.saturatedAt(index))
            chaos_reject = true;
        else if (opts.workers > 0 &&
                 queue.size() >= opts.queueCapacity)
            overload_reject = true;
        else if (opts.workers > 0) {
            queue.push_back(Job{index, line});
            auto depth = static_cast<std::int64_t>(queue.size());
            if (depth > queuePeakDepth.value())
                queuePeakDepth.set(depth);
            // Read pool under the same lock that start() publishes
            // it: either the pool existed when we pushed (we post
            // below) or start()'s backlog count includes this line.
            post_now = pool != nullptr;
        }
    }

    if (chaos_reject || overload_reject) {
        if (chaos_reject)
            chaosSaturationRejects.inc();
        else
            overloadRejects.inc();
        ServiceResponse resp;
        resp.id = peekRequestId(line);
        resp.status = Status::Rejected;
        resp.fidelity = Fidelity::None;
        JsonWriter w(kEnvelopeBytes);
        w.field("id", resp.id)
            .field("status", statusName(resp.status))
            .field("fidelity", fidelityName(resp.fidelity))
            .field("error", "overloaded");
        resp.line = std::move(w).take();
        complete(index, std::move(resp));
        return;
    }

    if (opts.workers == 0) {
        // Degenerate synchronous mode: the caller's thread is the
        // worker (tests and one-shot tools).
        if (opts.chaos.stallFor(index)) {
            chaosStalls.inc();
            std::this_thread::sleep_for(
                std::chrono::milliseconds(opts.chaos.stallMillis));
        }
        complete(index, handleLine(line));
        return;
    }
    if (post_now)
        pool->post([this](int worker) { runJob(worker); });
}

void
PlanService::drain()
{
    std::uint64_t target;
    {
        std::lock_guard<std::mutex> lock(queueMutex);
        target = nextSubmitIndex;
    }
    std::unique_lock<std::mutex> lock(outMutex);
    outCv.wait(lock, [&] { return nextEmitIndex >= target; });
}

void
PlanService::stop()
{
    drain();
    pool.reset();
    publishCacheMetrics();
}

void
PlanService::publishCacheMetrics()
{
    PlanCacheStats s = cache.stats();
    auto mirror = [&](const char *name, std::uint64_t value) {
        obs::Counter c = registry.counter(name);
        c.reset();
        c.add(value);
    };
    mirror("svc.cache.hits", s.hits);
    mirror("svc.cache.misses", s.misses);
    mirror("svc.cache.corrupt_hits", s.corruptHits);
    mirror("svc.cache.insertions", s.insertions);
    mirror("svc.cache.evictions", s.evictions);
}

void
PlanService::runJob(int worker_id)
{
    // One posted task per admitted line, so the ledger is never
    // empty here; taking the front preserves FIFO pickup order even
    // when the farm's steal schedule reorders the tasks themselves.
    Job job;
    {
        std::lock_guard<std::mutex> lock(queueMutex);
        job = std::move(queue.front());
        queue.pop_front();
    }
    if (opts.chaos.stallFor(job.index)) {
        chaosStalls.inc();
        std::this_thread::sleep_for(
            std::chrono::milliseconds(opts.chaos.stallMillis));
    }
    auto start = std::chrono::steady_clock::now();
    ServiceResponse resp = handleLine(job.line);
    if (tracer) {
        auto us = [this](std::chrono::steady_clock::time_point t) {
            return static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    t - epoch)
                    .count());
        };
        auto end = std::chrono::steady_clock::now();
        std::lock_guard<std::mutex> lock(tracerMutex);
        tracer->span("svc", "request", worker_id, us(start),
                     us(end) - us(start), "id", resp.id);
    }
    complete(job.index, std::move(resp));
}

void
PlanService::complete(std::uint64_t index, ServiceResponse &&response)
{
    {
        std::lock_guard<std::mutex> lock(outMutex);
        outOfOrder.emplace(index, std::move(response));
        // Flush in arrival order; the sink runs under the lock so
        // emissions are serialized and ordered by construction.
        while (!outOfOrder.empty() &&
               outOfOrder.begin()->first == nextEmitIndex) {
            const ServiceResponse &out = outOfOrder.begin()->second;
            switch (out.status) {
            case Status::Ok: responsesOk.inc(); break;
            case Status::Degraded: responsesDegraded.inc(); break;
            case Status::Rejected: responsesRejected.inc(); break;
            case Status::Error: responsesError.inc(); break;
            }
            sink(out);
            outOfOrder.erase(outOfOrder.begin());
            ++nextEmitIndex;
        }
    }
    outCv.notify_all();
}

ServiceResponse
PlanService::handleLine(const std::string &line)
{
    std::string error;
    std::uint64_t id = 0;
    auto req = Request::tryParse(line, &error, &id);
    if (!req) {
        parseErrors.inc();
        ServiceResponse resp;
        resp.id = id;
        resp.status = Status::Error;
        resp.fidelity = Fidelity::None;
        JsonWriter w(kEnvelopeBytes + error.size());
        w.field("id", id)
            .field("status", statusName(resp.status))
            .field("fidelity", fidelityName(resp.fidelity))
            .field("error", error);
        resp.line = std::move(w).take();
        return resp;
    }
    requestsByOp[static_cast<int>(req->op)].inc();
    return handleParsed(*req);
}

ServiceResponse
PlanService::handleParsed(const Request &request)
{
    switch (request.op) {
    case Op::Plan: return handlePlan(request);
    case Op::Sim: return handleSim(request);
    case Op::Validate: return handleValidate(request);
    case Op::Health: return handleHealth(request);
    }
    util::fatal("PlanService: unreachable op");
}

ServiceResponse
PlanService::finish(const Request &request, Status status,
                    Fidelity fidelity, std::string_view fragment,
                    const std::string &cache_key)
{
    if (!cache_key.empty()) {
        cache.insert(cache_key,
                     encodeCached(status, fidelity, fragment));
        // Self-chaos: corrupt the just-stamped entry so the *next*
        // lookup exercises the detection path. Keyed on the cache
        // key, so replays corrupt the same entries no matter how the
        // pool interleaved.
        if (auto bit = opts.chaos.flipBitFor(cache_key)) {
            cache.corruptBit(cache_key, *bit);
            chaosFlips.inc();
        }
    }
    ServiceResponse resp;
    resp.id = request.id;
    resp.status = status;
    resp.fidelity = fidelity;
    // The envelope's fields, then the payload's, in one allocation.
    JsonWriter w(kEnvelopeBytes + fragment.size());
    w.field("id", request.id)
        .field("op", opName(request.op))
        .field("status", statusName(status))
        .field("fidelity", fidelityName(fidelity))
        .splice(fragment);
    resp.line = std::move(w).take();
    return resp;
}

ServiceResponse
PlanService::handlePlan(const Request &request)
{
    std::string key = core::canonicalQueryKey(
        "plan", request.machine, request.x, request.y, 0,
        request.bytes, 0, "", "");
    if (auto hit = cache.lookup(key)) {
        Status status;
        Fidelity fidelity;
        std::string_view fragment;
        if (decodeCached(*hit, status, fidelity, fragment))
            return finish(request, status, fidelity, fragment, "");
    }

    // One planning pass: the steady-state ranking, and the sized one
    // re-ranked from the same rated programs.
    auto plans = core::plan({request.machine, request.x, request.y, 0.0});

    JsonWriter w(kPayloadBytes);
    queryFields(w, request).field("best", plans.front().program.styleKey);
    w.fixed("best_mbps", plans.front().estimate);
    w.openString("styles");
    for (const core::PlannedStrategy &p : plans) {
        if (&p != &plans.front())
            w.stringPiece(",");
        w.stringPiece(p.program.styleKey).stringPiece("=").fixedPiece(
            p.estimate);
    }
    w.closeString();
    if (request.bytes > 0) {
        auto sized = core::planForSize(plans, request.bytes);
        w.field("message_bytes", request.bytes);
        if (!sized.empty()) {
            w.field("best_sized", sized.front().key);
            w.fixed("effective_mbps", sized.front().effective);
            w.field("half_power_bytes",
                    static_cast<std::uint64_t>(
                        sized.front().model.halfPowerPoint()));
        }
    }
    return finish(request, Status::Ok, Fidelity::Analytic,
                  w.fragment(), key);
}

ServiceResponse
PlanService::handleSim(const Request &request)
{
    std::uint64_t budget =
        request.budget > 0 ? request.budget : opts.defaultBudget;
    std::string key = core::canonicalQueryKey(
        "sim", request.machine, request.x, request.y, request.words,
        0, budget, request.faultsSummary, request.chaosSummary);
    if (auto hit = cache.lookup(key)) {
        Status status;
        Fidelity fidelity;
        std::string_view fragment;
        if (decodeCached(*hit, status, fidelity, fragment)) {
            if (fidelity == Fidelity::Truncated)
                deadlineTruncated.inc();
            else if (fidelity == Fidelity::Analytic)
                deadlineAnalytic.inc();
            return finish(request, status, fidelity, fragment, "");
        }
    }

    sim::MachineConfig cfg = sim::configFor(request.machine);
    cfg.faults = request.faults;
    cfg.chaos = request.chaos;

    core::PlanQuery query{request.machine, request.x, request.y, 0.0};
    core::PlannedStrategy best = core::bestPlan(query);
    const core::TransferProgram &base = best.program;

    JsonWriter w(kPayloadBytes);
    queryFields(w, request)
        .field("words", request.words)
        .field("style", base.styleKey)
        .field("budget", budget);

    if (std::string bad = sim::machineConfigError(cfg); !bad.empty()) {
        // An outage target the machine lacks: an in-band error, not
        // a fatal() from the Machine constructor.
        w.field("error", bad);
        return finish(request, Status::Error, Fidelity::None,
                      w.fragment(), "");
    }

    if (budget > 0 && budget < opts.analyticFloor) {
        // Bottom rung: the budget cannot buy a meaningful sim, so
        // answer from the model immediately (microseconds, and a
        // principled estimate rather than a garbage partial run).
        deadlineAnalytic.inc();
        w.fixed("analytic_mbps", analyticRateFor(request, base, cfg));
        return finish(request, Status::Degraded, Fidelity::Analytic,
                      w.fragment(), key);
    }

    core::TransferProgram program = core::withReliability(base);
    std::string unfit =
        rt::exchangeFitError(cfg, program, request.words);
    if (!unfit.empty()) {
        // Refused before a machine is built: the service keeps
        // answering instead of dying in the node allocator.
        w.field("node_ram_bytes", cfg.node.ramBytes)
            .field("error", unfit);
        return finish(request, Status::Error, Fidelity::None,
                      w.fragment(), "");
    }

    rt::SimBackend backend(cfg);
    backend.setEventBudget(budget);
    rt::SimRun run = backend.exchange(program, request.words);
    releaseFreedMemory();

    w.field("layer", run.layerName)
        .field("events", run.eventsExecuted)
        .field("makespan_cycles",
               static_cast<std::uint64_t>(run.result.makespan));

    if (run.truncated) {
        // Middle rung: the sim ran out of budget mid-flight. Report
        // the progress made plus the model's view of the full run.
        deadlineTruncated.inc();
        w.fixed("analytic_mbps", analyticRateFor(request, base, cfg));
        return finish(request, Status::Degraded, Fidelity::Truncated,
                      w.fragment(), key);
    }
    if (run.corruptWords > 0) {
        w.field("corrupt_words", run.corruptWords)
            .field("error", "delivery corrupted");
        return finish(request, Status::Error, Fidelity::Exact,
                      w.fragment(), key);
    }
    w.fixed("goodput_mbps", run.perNodeMBps);
    // A dead endpoint's words are lost to the outage, not corrupt.
    if (run.lostWords > 0)
        w.field("lost_words", run.lostWords);
    if (run.result.degraded)
        w.field("transport_degraded", true);
    return finish(request, Status::Ok, Fidelity::Exact, w.fragment(),
                  key);
}

ServiceResponse
PlanService::handleValidate(const Request &request)
{
    // A plain local, deliberately: a function-local static here
    // would add a hidden guard-variable rendezvous between workers
    // (the shared-static audit in DESIGN.md §14 flags exactly this).
    const std::string key = "validate|all";
    if (auto hit = cache.lookup(key)) {
        Status status;
        Fidelity fidelity;
        std::string_view fragment;
        if (decodeCached(*hit, status, fidelity, fragment))
            return finish(request, status, fidelity, fragment, "");
    }
    rt::ValidationReport report = rt::crossValidate();
    releaseFreedMemory();
    JsonWriter w;
    w.field("cells",
            static_cast<std::uint64_t>(report.cells.size()));
    w.fixed("worst_err_pct", report.worstAbsErrPct);
    w.fixed("tolerance_pct", report.options.tolerancePct);
    w.field("all_pass", report.allPass);
    return finish(request, Status::Ok, Fidelity::Exact, w.fragment(),
                  key);
}

ServiceResponse
PlanService::handleHealth(const Request &request)
{
    JsonWriter w(kPayloadBytes);
    w.field("workers", opts.workers)
        .field("queue_capacity",
               static_cast<std::uint64_t>(opts.queueCapacity))
        .field("cache_capacity",
               static_cast<std::uint64_t>(opts.cacheCapacity))
        .field("svc_chaos", opts.chaos.summary());
    return finish(request, Status::Ok, Fidelity::Exact, w.fragment(),
                  "");
}

} // namespace ct::svc
