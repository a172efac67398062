/**
 * @file
 * The `storm` workload: one generator thread feeds a seeded NDJSON
 * stream into an in-process svc::PlanService with three workers. Most
 * requests are plan queries over a skewed key space several times
 * larger than the plan cache, so hits (reads) and misses, insertions
 * and evictions (writes) mix; a minority are sim requests whose
 * event budgets fall on both sides of the analytic floor, and a few
 * are health checks. The svc layer and the core planner do most of
 * the work; the simulator runs only short budgeted sims.
 *
 * Phases: the generator answering the stream itself through
 * handleLine() (the service's per-request work without its pool; its
 * rate is the gated one, as the pooled phases' rates swing with how
 * many vCPUs a shared host lends at once), a closed loop holding
 * kOutstanding requests in flight (below the admission bound), then
 * two open loops at fixed seeded Poisson rates. Open-loop latency is
 * timed from each request's due time, so a stall also counts against
 * the requests queued behind it. Every response must equal the
 * synchronous handleLine() answer for the same line (docs/SERVICE.md:
 * response content is a pure function of the line). The seed chooses
 * the request stream and the arrival schedule.
 */

#include <algorithm>
#include <charconv>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_map>
#include <utility>

#include "core/planner.h"
#include "svc/request.h"
#include "svc/service.h"
#include "util/rng.h"
#include "workloads.h"

namespace hostbench {

namespace {

using namespace ct;

constexpr int kWorkers = 3;
constexpr std::size_t kQueue = 64;
constexpr std::size_t kCache = 256;
/** Closed-loop window: requests held outstanding (< kQueue). */
constexpr std::size_t kOutstanding = 48;
/** Open-loop offered rates, requests per second: low and moderate
 *  load, so a generator stall's burst stays below the admission
 *  bound. */
constexpr double kRateLo = 400.0;
constexpr double kRateHi = 1000.0;
/** Requests per rate window; serve_rps and sync_rps are the median
 *  window rates. */
constexpr std::size_t kWindow = 4000;
/** Share of --seconds each phase runs. */
constexpr double kSyncShare = 0.4;
constexpr double kClosedShare = 0.3;
constexpr double kOpenShare = 0.15;
/** Requests replayed synchronously in the traced run. */
constexpr std::size_t kReplay = 6000;
/** Closed-loop requests that warm the pool at the end of set-up. */
constexpr std::size_t kPoolWarm = 4 * kOutstanding;

enum class Kind { Plan, Sim, Health };

/** One distinct request: everything of its line after the id. */
struct Query
{
    std::string body;
    Kind kind = Kind::Plan;
};

/** The seeded query space and the reference answer of each query. */
struct Space
{
    std::vector<Query> plans; ///< in popularity order (rank 0 first)
    std::vector<double> planCdf;
    std::vector<Query> sims;
    Query health{"\"op\":\"health\"}", Kind::Health};
};

const char *const kPatterns[] = {"1",  "2",   "3",   "4",    "8", "16",
                                 "32", "64",  "256", "1024", "w", "16.2"};
const char *const kMachines[] = {"t3d", "paragon"};

Space
makeSpace(std::uint64_t seed)
{
    Space s;
    for (const char *m : kMachines)
        for (const char *x : kPatterns)
            for (const char *y : kPatterns)
                for (std::uint64_t bytes : {0, 512, 8192, 131072}) {
                    std::string body = std::string("\"op\":\"plan\",") +
                                       "\"machine\":\"" + m +
                                       "\",\"xqy\":\"" + x + "Q" + y + "\"";
                    if (bytes)
                        body += ",\"bytes\":" + std::to_string(bytes);
                    s.plans.push_back({body + "}", Kind::Plan});
                }
    // Popularity: Zipf(0.9) over a seeded ranking of the keys.
    util::Rng rng(seed * 0x9e3779b97f4a7c15ull + 1);
    rng.shuffle(s.plans);
    double total = 0.0;
    for (std::size_t r = 0; r < s.plans.size(); ++r) {
        total += 1.0 / std::pow(static_cast<double>(r + 1), 0.9);
        s.planCdf.push_back(total);
    }
    for (double &c : s.planCdf)
        c /= total;

    // Sims: short exchanges (at most ~1300 events) with budgets below
    // the analytic floor (answered by the model) and above it (exact).
    // A budget that truncates has to buy at least the floor's 4096
    // events, tens of ms that stall every response queued behind it.
    for (const char *m : kMachines)
        for (const char *xqy : {"1Q1", "1Q16", "wQw", "16Q1"})
            for (std::uint64_t words : {512, 2048})
                for (std::uint64_t budget : {2000, 8000})
                    s.sims.push_back(
                        {std::string("\"op\":\"sim\",\"machine\":\"") + m +
                             "\",\"xqy\":\"" + xqy +
                             "\",\"words\":" + std::to_string(words) +
                             ",\"budget\":" + std::to_string(budget) + "}",
                         Kind::Sim});
    return s;
}

/**
 * A seeded request stream over @p space. The mix is fixed by position
 * (every 50th request a health check, every 10th a sim, the sims
 * cycling through a seeded order of all of them) so that every seed
 * asks for the same amount of each kind of work; the seed picks the
 * order and the plan keys.
 */
std::vector<const Query *>
makeStream(const Space &space, std::uint64_t seed, std::size_t n)
{
    util::Rng rng(seed);
    std::vector<const Query *> sims;
    for (const Query &q : space.sims)
        sims.push_back(&q);
    rng.shuffle(sims);
    std::vector<const Query *> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        if (i % 50 == 49) {
            out.push_back(&space.health);
        } else if (i % 10 == 4) {
            out.push_back(sims[(i / 10) % sims.size()]);
        } else {
            double v = rng.nextDouble();
            auto it = std::lower_bound(space.planCdf.begin(),
                                       space.planCdf.end(), v);
            std::size_t r = std::min<std::size_t>(
                static_cast<std::size_t>(it - space.planCdf.begin()),
                space.plans.size() - 1);
            out.push_back(&space.plans[r]);
        }
    }
    return out;
}

/** Seeded Poisson arrival times (seconds from phase start). */
std::vector<double>
arrivals(std::uint64_t seed, double rate, double seconds)
{
    util::Rng rng(seed);
    std::vector<double> out;
    double t = 0.0;
    while (true) {
        t += -std::log(1.0 - rng.nextDouble()) / rate;
        if (t >= seconds)
            return out;
        out.push_back(t);
    }
}

std::string
lineFor(std::uint64_t id, const Query &q)
{
    return "{\"id\":" + std::to_string(id) + "," + q.body;
}

svc::ServiceOptions
serviceOptions()
{
    svc::ServiceOptions opts;
    opts.workers = kWorkers;
    opts.queueCapacity = kQueue;
    opts.cacheCapacity = kCache;
    return opts;
}

/** Reference answers: each query's response line after its id,
 *  from handleLine() on a service of the same configuration that was
 *  never started (so it answers on the calling thread). */
using References = std::unordered_map<const Query *, std::string>;

References
referenceAnswers(const Space &space, Digest &digest)
{
    svc::PlanService ref(serviceOptions(), [](const svc::ServiceResponse &) {});
    References refs;
    const std::string prefix = "{\"id\":0";
    auto add = [&](const Query &q) {
        std::string line = ref.handleLine(lineFor(0, q)).line;
        if (line.rfind(prefix, 0) != 0)
            return;
        refs.emplace(&q, line.substr(prefix.size()));
        digest.add(std::string_view(line));
    };
    for (const Query &q : space.plans)
        add(q);
    for (const Query &q : space.sims)
        add(q);
    add(space.health);
    return refs;
}

/** How a response compares with its reference answer. */
enum class Verdict { Right, Refused, Wrong };

Verdict
judge(const svc::ServiceResponse &r, std::uint64_t id,
      const std::string &tail)
{
    if (r.status == svc::Status::Rejected || r.status == svc::Status::Error)
        return Verdict::Refused;
    std::string_view line = r.line;
    char digits[24];
    auto [end, ec] = std::to_chars(digits, digits + sizeof digits, id);
    std::string_view head = "{\"id\":";
    std::string_view num(digits, static_cast<std::size_t>(end - digits));
    bool right = ec == std::errc() &&
                 line.size() == head.size() + num.size() + tail.size() &&
                 line.substr(0, head.size()) == head &&
                 line.substr(head.size(), num.size()) == num &&
                 line.substr(head.size() + num.size()) == tail;
    return right ? Verdict::Right : Verdict::Wrong;
}

/**
 * The service under test and what its sink saw: each response is
 * judged against its reference answer as it arrives (the service
 * emits in arrival order, and only one thread submits), and, while
 * timing, its arrival time is kept.
 */
class Harness
{
  public:
    /** What the sink saw since the last take(). */
    struct Taken
    {
        std::uint64_t right = 0, refused = 0, wrong = 0;
        std::vector<Clock::time_point> done; ///< while timing
        std::uint64_t answered() const { return right + refused + wrong; }
        void add(Verdict v)
        {
            switch (v) {
            case Verdict::Right: ++right; break;
            case Verdict::Refused: ++refused; break;
            case Verdict::Wrong: ++wrong; break;
            }
        }
        void add(const Taken &other)
        {
            right += other.right;
            refused += other.refused;
            wrong += other.wrong;
        }
    };

    explicit Harness(const References &refs)
        : refs(refs),
          planService(serviceOptions(),
                      [this](const svc::ServiceResponse &r) { onResponse(r); })
    {}

    svc::PlanService &service() { return planService; }

    void submit(const Query &query, std::uint64_t id)
    {
        {
            std::lock_guard<std::mutex> lock(mu);
            pending.push_back({&query, id});
        }
        planService.submit(lineFor(id, query));
    }

    /** Block until fewer than @p window submissions are unanswered. */
    void waitBelow(std::size_t window)
    {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return pending.size() < window; });
    }

    /** Keep (or stop keeping) each response's arrival time. */
    void setTiming(bool on)
    {
        std::lock_guard<std::mutex> lock(mu);
        timing = on;
    }

    /** What the sink saw since the last call; call once drained. */
    Taken take()
    {
        std::lock_guard<std::mutex> lock(mu);
        return std::exchange(seen, Taken{});
    }

  private:
    struct Pending
    {
        const Query *query = nullptr;
        std::uint64_t id = 0;
    };

    void onResponse(const svc::ServiceResponse &r)
    {
        Clock::time_point now = Clock::now();
        {
            std::lock_guard<std::mutex> lock(mu);
            Pending p = pending.front();
            pending.pop_front();
            seen.add(judge(r, p.id, refs.at(p.query)));
            if (timing)
                seen.done.push_back(now);
        }
        cv.notify_all();
    }

    const References &refs;
    std::mutex mu; ///< guards pending, timing and seen
    std::condition_variable cv;
    std::deque<Pending> pending;
    bool timing = false;
    Taken seen;
    /** Last: its workers call onResponse() until it is destroyed. */
    svc::PlanService planService;
};

struct ClosedResult
{
    Harness::Taken taken;
    double wallS = 0.0;
    /** Requests per second of each kWindow-request window. */
    std::vector<double> windowRps;
};

/**
 * Closed loop: keep kOutstanding requests in flight until @p seconds
 * pass or @p max_requests were sent, then drain.
 */
ClosedResult
closedLoop(Trace *trace, Harness &h, const std::vector<const Query *> &stream,
           std::uint64_t &next_id, double seconds, std::size_t max_requests)
{
    ClosedResult out;
    Span phase(trace, "bench", "closed_loop");
    Clock::time_point t0 = Clock::now();
    Clock::time_point window = t0;
    for (std::size_t i = 0; i < max_requests; ++i) {
        if (i % kWindow == 0 && i > 0) {
            out.windowRps.push_back(static_cast<double>(kWindow) /
                                    secondsSince(window));
            if (secondsSince(t0) >= seconds)
                break;
            window = Clock::now();
        }
        h.waitBelow(kOutstanding);
        Span s(trace, "svc", "submit", trace ? trace->nextOp() : 0);
        h.submit(*stream[i % stream.size()], next_id++);
    }
    h.service().drain();
    out.wallS = phase.stop();
    out.taken = h.take();
    return out;
}

struct OpenResult
{
    Harness::Taken taken;
    std::vector<double> latencyMs;
    std::vector<double> lateMs;
    std::vector<std::uint64_t> ids;
    double wallS = 0.0;
};

/** Open loop at @p rate: submit each request at its due time. */
OpenResult
openLoop(Trace *trace, Harness &h, const std::vector<const Query *> &stream,
         const std::vector<double> &due_s, std::uint64_t &next_id,
         const char *phase_name)
{
    OpenResult out;
    h.setTiming(true);
    std::vector<Clock::time_point> due;
    due.reserve(due_s.size());
    Span phase(trace, "bench", phase_name);
    Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < due_s.size(); ++i) {
        Clock::time_point at =
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(due_s[i]));
        std::this_thread::sleep_until(at);
        due.push_back(at);
        out.lateMs.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - at)
                .count());
        Span s(trace, "svc", "submit", trace ? trace->nextOp() : 0);
        out.ids.push_back(next_id);
        h.submit(*stream[i % stream.size()], next_id++);
    }
    h.service().drain();
    out.wallS = phase.stop();
    h.setTiming(false);
    out.taken = h.take();
    for (std::size_t i = 0; i < out.taken.done.size(); ++i)
        out.latencyMs.push_back(std::chrono::duration<double, std::milli>(
                                    out.taken.done[i] - due[i])
                                    .count());
    return out;
}

/**
 * Synchronous phase: the generator thread answers the stream itself
 * through handleLine() of a never-started service of the same
 * configuration (parse, cache, planner, sims, JSON; no pool, queue
 * or sequencer) until @p seconds pass, judging every answer.
 * Requests per second of each kWindow-request window, with a
 * host-speed probe before the first and after each.
 */
struct SyncResult
{
    Harness::Taken taken;
    std::vector<double> windowRps;
    std::vector<double> probes;
};

SyncResult
syncLoop(const References &refs, const std::vector<const Query *> &stream,
         double seconds)
{
    SyncResult out;
    svc::PlanService sync(serviceOptions(), [](const svc::ServiceResponse &) {});
    out.probes.push_back(probeSeconds(1));
    Clock::time_point t0 = Clock::now();
    Clock::time_point window = t0;
    for (std::size_t i = 0;; ++i) {
        if (i % kWindow == 0 && i > 0) {
            out.windowRps.push_back(static_cast<double>(kWindow) /
                                    secondsSince(window));
            if (secondsSince(t0) >= seconds)
                break;
            out.probes.push_back(probeSeconds(1));
            window = Clock::now();
        }
        const Query &q = *stream[i % stream.size()];
        out.taken.add(judge(sync.handleLine(lineFor(i + 1, q)), i + 1,
                            refs.at(&q)));
    }
    return out;
}

/** Everything a run generates from its seed. */
struct Inputs
{
    Space space;
    /** Points into space: an Inputs is never moved. */
    References refs;
    std::string digest;
    std::vector<const Query *> warm, closed, loStream, hiStream;
    std::vector<double> loDue, hiDue;
};

/** The inputs of @p seed; null when a reference answer is missing. */
std::unique_ptr<Inputs>
makeInputs(std::uint64_t seed, double open_s)
{
    auto in = std::make_unique<Inputs>();
    in->space = makeSpace(seed);
    Digest digest;
    in->refs = referenceAnswers(in->space, digest);
    if (in->refs.size() !=
        in->space.plans.size() + in->space.sims.size() + 1)
        return nullptr;
    in->digest = digest.hex();
    in->warm = makeStream(in->space, seed ^ 0x5741524d, 3000);
    in->closed = makeStream(in->space, seed ^ 0xc105ed, 200000);
    in->loStream = makeStream(in->space, seed ^ 0x10, 50000);
    in->hiStream = makeStream(in->space, seed ^ 0x41, 50000);
    in->loDue = arrivals(seed ^ 0x1001, kRateLo, open_s);
    in->hiDue = arrivals(seed ^ 0x4101, kRateHi, open_s);
    return in;
}

/**
 * Set-up: a service whose plan cache and request path the calling
 * thread warms through handleLine() over the warm-up stream (each
 * answer judged into @p warm), then started and warmed on its pool
 * by a short closed loop. Nearly all of it runs on one thread, so
 * its time does not swing with how many vCPUs a shared host lends.
 */
std::unique_ptr<Harness>
setUp(const Inputs &in, std::uint64_t &next_id, Harness::Taken &warm)
{
    auto h = std::make_unique<Harness>(in.refs);
    for (const Query *q : in.warm) {
        std::uint64_t id = next_id++;
        warm.add(judge(h->service().handleLine(lineFor(id, *q)), id,
                       in.refs.at(q)));
    }
    h->service().start();
    warm.add(closedLoop(nullptr, *h, in.warm, next_id, 1e9, kPoolWarm).taken);
    return h;
}

} // namespace

Outcome
runStorm(const RunOptions &options)
{
    Outcome out;
    const double sync_s = options.seconds * kSyncShare;
    const double closed_s = options.seconds * kClosedShare;
    const double open_s = options.seconds * kOpenShare;

    // A refusal (rejected or error) is a failed request; any other
    // answer that differs from the reference is a wrong output.
    auto account = [&](const Harness::Taken &taken) {
        out.attempted += taken.answered();
        out.failed += taken.refused + taken.wrong;
        if (taken.wrong != 0)
            out.correct = false;
    };

    // Set up kSetups times (inputs generated, service built and
    // warmed) and keep the last; setup_s is the median.
    std::uint64_t next_id = 1;
    std::vector<double> setup_times;
    std::unique_ptr<Inputs> in;
    std::unique_ptr<Harness> h;
    for (int i = 0; i < kSetups; ++i) {
        // The last set-up's teardown is not timed; the service goes
        // before the inputs its sink judges against.
        h.reset();
        in.reset();
        Clock::time_point t0 = Clock::now();
        in = makeInputs(options.seed, open_s);
        if (!in) {
            out.correct = false;
            return out;
        }
        Harness::Taken warm;
        h = setUp(*in, next_id, warm);
        setup_times.push_back(secondsSince(t0));
        account(warm);
    }
    out.digest = in->digest;
    const References &refs = in->refs;
    const std::vector<const Query *> &closed = in->closed;

    if (!options.trace) {
        SyncResult sync = syncLoop(refs, closed, sync_s);
        account(sync.taken);
        ClosedResult c = closedLoop(nullptr, *h, closed, next_id, closed_s,
                                    closed.size());
        account(c.taken);
        OpenResult lo = openLoop(nullptr, *h, in->loStream, in->loDue,
                                 next_id, "open_lo");
        account(lo.taken);
        OpenResult hi = openLoop(nullptr, *h, in->hiStream, in->hiDue,
                                 next_id, "open_hi");
        account(hi.taken);
        h->service().stop();

        std::vector<double> late = lo.lateMs;
        late.insert(late.end(), hi.lateMs.begin(), hi.lateMs.end());
        out.metrics = {
            {"serve_rps", median(c.windowRps), "1/s", c.windowRps.size()},
            {"sync_rps", median(sync.windowRps), "1/s", sync.windowRps.size()},
            {"sync_req_per_probe",
             median(sync.windowRps) * median(sync.probes), "req/probe",
             sync.windowRps.size()},
            {"probe_ms", median(sync.probes) * 1e3, "ms", sync.probes.size()},
            {"spread_within_run", iqrShare(sync.windowRps), "ratio",
             sync.windowRps.size()},
            {"p50_ms_lo", percentile(lo.latencyMs, 50), "ms",
             lo.latencyMs.size()},
            {"p99_ms_lo", percentile(lo.latencyMs, 99), "ms",
             lo.latencyMs.size()},
            {"p50_ms_hi", percentile(hi.latencyMs, 50), "ms",
             hi.latencyMs.size()},
            {"p99_ms_hi", percentile(hi.latencyMs, 99), "ms",
             hi.latencyMs.size()},
            {"gen_late_ms_p99", percentile(late, 99), "ms", late.size()},
            {"setup_s", median(setup_times), "s", setup_times.size()},
        };
        return out;
    }

    // Traced run. Baseline: an untraced closed loop of fixed length;
    // then the same length traced, with the service's own svc.request
    // spans (handle time per request id) on a second tracer.
    const std::size_t n_closed = 20000;
    ClosedResult base =
        closedLoop(nullptr, *h, closed, next_id, 1e9, n_closed);
    account(base.taken);
    h->service().stop();
    h.reset();
    Harness::Taken warm;
    h = setUp(*in, next_id, warm);
    account(warm);
    ct::obs::Tracer svc_tracer(1 << 17);
    h->service().setTracer(&svc_tracer);

    Trace trace(kTraceCapacity);
    Clock::time_point t0 = Clock::now();
    Span root(&trace, "bench", "storm", 0, 0);
    ClosedResult c = closedLoop(&trace, *h, closed, next_id, 1e9, n_closed);
    double traced_closed = c.wallS;
    OpenResult lo = openLoop(&trace, *h, in->loStream, in->loDue, next_id,
                             "open_lo");
    OpenResult hi = openLoop(&trace, *h, in->hiStream, in->hiDue, next_id,
                             "open_hi");
    h->service().stop();
    account(c.taken);
    account(lo.taken);
    account(hi.taken);

    // Synchronous replays: parse, handle (classified by what the cache
    // did) and plan, per line of the closed-loop stream.
    svc::PlanService sync(serviceOptions(), [](const svc::ServiceResponse &) {});
    std::set<std::string> planned;
    {
        Span replay(&trace, "bench", "replay");
        for (std::size_t i = 0; i < kReplay; ++i) {
            const Query &q = *closed[i];
            std::string line = lineFor(i + 1, q);
            Span op(&trace, "bench", "request", trace.nextOp());
            std::optional<svc::Request> req;
            {
                std::string error;
                Span s(&trace, "svc", "parse");
                req = svc::Request::tryParse(line, &error, nullptr);
            }
            std::uint64_t hits = sync.cacheStats().hits;
            const char *name = q.kind == Kind::Sim      ? "handle.sim"
                               : q.kind == Kind::Health ? "handle.health"
                                                        : "handle.plan";
            Span s(&trace, "svc", name);
            svc::ServiceResponse r = sync.handleLine(line);
            if (q.kind == Kind::Plan)
                s.rename(sync.cacheStats().hits > hits ? "handle.plan_hit"
                                                        : "handle.plan_miss");
            s.stop();
            if (judge(r, i + 1, refs.at(&q)) != Verdict::Right) {
                out.correct = false;
                ++out.failed;
            }
            ++out.attempted;
            if (q.kind == Kind::Plan && req && planned.insert(q.body).second) {
                Span p(&trace, "core", "plan");
                core::plan({req->machine, req->x, req->y, 0.0});
            }
        }
    }
    root.stop();
    double traced_wall = secondsSince(t0);

    // svc.wait_ms: open-loop latency minus the request's handle time.
    std::unordered_map<std::uint64_t, double> handle_ms;
    for (std::size_t i = 0; i < svc_tracer.size(); ++i) {
        const ct::obs::TraceEvent &e = svc_tracer.event(i);
        handle_ms[e.val1] = static_cast<double>(e.dur) / 1e3; // us -> ms
    }
    std::vector<double> wait_ms;
    for (const OpenResult *r : {&lo, &hi})
        for (std::size_t i = 0; i < r->latencyMs.size(); ++i) {
            auto it = handle_ms.find(r->ids[i]);
            if (it != handle_ms.end())
                wait_ms.push_back(r->latencyMs[i] - it->second);
        }
    if (svc_tracer.dropped() != 0)
        out.correct = false;

    std::vector<SpanRecord> spans = trace.spans();
    std::vector<Metric> &m = out.metrics;
    m.push_back(spanMedian(spans, "core", "plan", "core.plan_us", "us"));
    m.push_back(spanMedian(spans, "svc", "parse", "svc.parse_us", "us"));
    m.push_back(spanMedian(spans, "svc", "handle.plan_hit",
                           "svc.handle_us.plan_hit", "us"));
    m.push_back(spanMedian(spans, "svc", "handle.plan_miss",
                           "svc.handle_us.plan_miss", "us"));
    m.push_back(spanMedian(spans, "svc", "handle.sim", "svc.handle_us.sim",
                           "us"));
    m.push_back({"svc.wait_ms", percentile(wait_ms, 99), "ms",
                 wait_ms.size()});

    svc::PlanCacheStats cs = h->service().cacheStats();
    std::uint64_t lookups = cs.hits + cs.misses;
    const ct::obs::MetricsRegistry &reg = h->service().metrics();
    m.push_back({"svc.cache.hit_ratio",
                 lookups ? static_cast<double>(cs.hits) /
                               static_cast<double>(lookups)
                         : 0.0,
                 "ratio", lookups});
    m.push_back({"svc.cache.evictions", static_cast<double>(cs.evictions),
                 "count", lookups});
    std::uint64_t requests = reg.counterValue("svc.requests.total");
    m.push_back({"svc.queue.peak_depth",
                 static_cast<double>(reg.gaugeValue("svc.queue.peak_depth")),
                 "count", requests});
    m.push_back({"svc.rejected",
                 static_cast<double>(reg.counterValue("svc.responses.rejected")),
                 "count", requests});
    m.push_back({"svc.deadline.truncated",
                 static_cast<double>(reg.counterValue("svc.deadline.truncated")),
                 "count", requests});
    m.push_back({"svc.deadline.analytic_fallbacks",
                 static_cast<double>(
                     reg.counterValue("svc.deadline.analytic_fallbacks")),
                 "count", requests});
    std::vector<double> late = lo.lateMs;
    late.insert(late.end(), hi.lateMs.begin(), hi.lateMs.end());
    m.push_back({"bench.gen_late_ms.p99", percentile(late, 99), "ms",
                 late.size()});
    m.push_back({"bench.gen_late_ms.max", percentile(late, 100), "ms",
                 late.size()});
    if (!finishTrace(trace, traced_wall, traced_closed / base.wallS,
                     options.traceOut, m))
        out.correct = false;
    return out;
}

} // namespace hostbench
