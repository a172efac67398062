/**
 * @file
 * The crash-calm planning service: a fixed-size worker pool (a
 * sweep::Farm -- the same work-stealing deques that run parameter
 * sweeps double as the request executor) answering NDJSON plan /
 * validate / sim / health requests with robustness as the contract
 * (docs/SERVICE.md):
 *
 *  - Bounded admission: submit() never blocks and never queues
 *    without bound. A full queue (or a chaos-injected saturation
 *    window) answers immediately with a structured "rejected"
 *    response -- every request gets exactly one response, always.
 *  - Deadlines as degradation, not failure: a sim request's event
 *    budget is threaded into the simulator as a cooperative
 *    cancellation checkpoint. Budgets that cut a run short degrade
 *    the answer down the ladder full sim -> truncated sim ->
 *    analytic-only, with the response's "fidelity" field naming the
 *    tier honestly.
 *  - Checksummed memoization: answers are cached under canonical
 *    query keys and CRC32C-stamped; a corrupt entry is detected on
 *    read, counted, and recomputed -- never served.
 *  - Deterministic self-chaos: an SvcChaos plan injects worker
 *    stalls, cache bit flips and admission saturation as pure
 *    functions of (seed, arrival index / cache key), so a chaos
 *    replay of the same request stream produces a byte-identical
 *    response log regardless of worker scheduling.
 *
 * Responses are delivered to the sink in arrival order (a sequencer
 * holds out-of-order completions; its buffer is bounded by the
 * admission queue's capacity, since only admitted requests can
 * complete out of order). Response *content* is a pure function of
 * the request line and the service configuration -- wall-clock
 * timing, worker identity and cache hit/miss state are observable
 * only through svc.* metrics, never through response bytes.
 */

#ifndef CT_SVC_SERVICE_H
#define CT_SVC_SERVICE_H

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "svc/chaos.h"
#include "svc/plan_cache.h"
#include "svc/request.h"
#include "sweep/farm.h"

namespace ct::svc {

/** Service configuration. */
struct ServiceOptions
{
    /** Worker threads executing requests (a sweep::Farm pool;
     *  0 = submit() handles each line synchronously). */
    int workers = 4;
    /** Admission-queue bound; submissions past it are rejected. */
    std::size_t queueCapacity = 64;
    /** Memoization cache entries. */
    std::size_t cacheCapacity = 256;
    /**
     * Default event budget of sim requests that carry none.
     * 0 = unlimited (full fidelity unless the request asks).
     */
    std::uint64_t defaultBudget = 0;
    /**
     * Budgets below this floor skip the simulator entirely and
     * answer from the analytic backend: a sim that cannot even
     * finish its first chunks tells less than the model does.
     */
    std::uint64_t analyticFloor = 4096;
    /** Deterministic self-chaos plan (default: none). */
    SvcChaos chaos;
};

/** One finished response. */
struct ServiceResponse
{
    std::uint64_t id = 0;
    Status status = Status::Ok;
    Fidelity fidelity = Fidelity::None;
    /** The full rendered NDJSON line (no trailing newline). */
    std::string line;
};

/** The service (see file comment). */
class PlanService
{
  public:
    /** Sink invoked in arrival order, serialized by the service. */
    using ResponseSink = std::function<void(const ServiceResponse &)>;

    PlanService(ServiceOptions options, ResponseSink sink);
    ~PlanService();

    PlanService(const PlanService &) = delete;
    PlanService &operator=(const PlanService &) = delete;

    /** Launch the worker pool. */
    void start();

    /**
     * Submit one NDJSON request line. Never blocks: over-capacity
     * (or chaos-saturated) submissions complete immediately with a
     * "rejected" response through the sink.
     */
    void submit(const std::string &line);

    /** Block until every submitted request has been answered. */
    void drain();

    /** drain(), then stop and join the workers. Idempotent. */
    void stop();

    /** Registry holding the svc.* counters (and nothing else). */
    obs::MetricsRegistry &metrics() { return registry; }
    const obs::MetricsRegistry &metrics() const { return registry; }

    /**
     * Mirror the cache counters into svc.cache.* registry cells
     * (called automatically by stop(); exposed for mid-run dumps).
     */
    void publishCacheMetrics();

    PlanCacheStats cacheStats() const { return cache.stats(); }

    /** Attach a tracer for svc.request spans (nullptr = off).
     *  Timestamps are wall microseconds since start(). */
    void setTracer(obs::Tracer *t) { tracer = t; }

    /**
     * Handle one already-admitted request line synchronously on the
     * calling thread. Exposed for the degenerate --workers=0 mode
     * and for tests that need the pure request -> response function
     * without pool scheduling.
     */
    ServiceResponse handleLine(const std::string &line);

  private:
    struct Job
    {
        std::uint64_t index = 0;
        std::string line;
    };

    /** Posted onto the farm once per admitted line: pop the oldest
     *  queued job and answer it on @p worker_id. */
    void runJob(int worker_id);
    /** Sequencer: record @p index's response, flush in order. */
    void complete(std::uint64_t index, ServiceResponse &&response);

    ServiceResponse handleParsed(const Request &request);
    ServiceResponse handlePlan(const Request &request);
    ServiceResponse handleSim(const Request &request);
    ServiceResponse handleValidate(const Request &request);
    ServiceResponse handleHealth(const Request &request);

    /**
     * Render the standard response envelope + payload fragment, and
     * memoize the fragment under @p cache_key when non-empty (with
     * the chaos flip applied after insertion).
     */
    ServiceResponse finish(const Request &request, Status status,
                           Fidelity fidelity, std::string_view fragment,
                           const std::string &cache_key);

    ServiceOptions opts;
    ResponseSink sink;
    PlanCache cache;
    obs::MetricsRegistry registry;
    obs::Tracer *tracer = nullptr;
    std::chrono::steady_clock::time_point epoch;

    /** Admission ledger: jobs admitted but not yet picked up. Its
     *  size (bounded by queueCapacity) is the overload signal; the
     *  farm's deques hold only opaque pop-and-run tasks, one per
     *  entry here, so FIFO pickup order is preserved. */
    std::mutex queueMutex;
    std::deque<Job> queue;
    /** The worker pool; null until start() when workers > 0. */
    std::unique_ptr<sweep::Farm> pool;

    std::mutex outMutex;
    std::condition_variable outCv;
    std::map<std::uint64_t, ServiceResponse> outOfOrder;
    std::uint64_t nextSubmitIndex = 0;
    std::uint64_t nextEmitIndex = 0;

    std::mutex tracerMutex;

    // svc.* metric handles (registered once in the constructor).
    obs::Counter requestsTotal;
    obs::Counter requestsByOp[4];
    obs::Counter responsesOk, responsesDegraded, responsesRejected,
        responsesError;
    obs::Counter overloadRejects, chaosSaturationRejects;
    obs::Counter chaosStalls, chaosFlips;
    obs::Counter deadlineTruncated, deadlineAnalytic;
    obs::Counter parseErrors;
    obs::Gauge queuePeakDepth;
};

} // namespace ct::svc

#endif // CT_SVC_SERVICE_H
