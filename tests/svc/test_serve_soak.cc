/**
 * @file
 * Seed-swept soak of the planning service: a randomized request
 * storm (mixed ops, mixed deadlines, malformed lines, service-level
 * chaos on) asserting the service's two core promises:
 *
 *  1. Exactly-one-response: every submitted line is answered once,
 *     in arrival order -- completed, degraded-with-fidelity, or an
 *     explicit reject. Nothing is silently dropped, nothing is
 *     answered twice.
 *  2. Replay-exactness: two runs over the same request stream with
 *     the same service configuration produce byte-identical response
 *     logs, even though the worker pool schedules differently.
 */

#include "svc/service.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace svc = ct::svc;

namespace {

/** Deterministic randomized request stream. */
std::vector<std::string>
makeStorm(std::uint64_t seed, int count)
{
    ct::util::Rng rng(seed);
    const char *machines[] = {"t3d", "paragon"};
    const char *patterns[] = {"1Q64", "1Q4", "wQw", "1Q1", "64Q1"};
    const char *faults[] = {"", "drop=0.02,seed=7",
                            "corrupt=0.01,seed=3"};
    std::vector<std::string> lines;
    lines.reserve(count);
    for (int i = 0; i < count; ++i) {
        std::uint64_t dice = rng.nextBelow(100);
        std::string line;
        if (dice < 40) {
            // plan, sometimes size-aware
            line = R"({"id":)" + std::to_string(i) +
                   R"(,"op":"plan","machine":")" +
                   machines[rng.nextBelow(2)] + R"(","xqy":")" +
                   patterns[rng.nextBelow(5)] + "\"";
            if (rng.nextBelow(2))
                line += R"(,"bytes":)" +
                        std::to_string(256u << rng.nextBelow(6));
            line += "}";
        } else if (dice < 70) {
            // sim with a mixed deadline: none / analytic-tier /
            // truncating / generous
            std::uint64_t budget_dice = rng.nextBelow(4);
            std::uint64_t budget =
                budget_dice == 0 ? 0
                : budget_dice == 1
                    ? 64 + rng.nextBelow(1000)   // analytic tier
                    : budget_dice == 2
                        ? 4096 + rng.nextBelow(4096) // may truncate
                        : 1u << 20;                  // generous
            line = R"({"id":)" + std::to_string(i) +
                   R"(,"op":"sim","machine":")" +
                   machines[rng.nextBelow(2)] + R"(","xqy":")" +
                   patterns[rng.nextBelow(5)] + R"(","words":)" +
                   std::to_string(512u << rng.nextBelow(3));
            if (budget)
                line += R"(,"budget":)" + std::to_string(budget);
            const char *fault = faults[rng.nextBelow(3)];
            if (*fault)
                line += R"(,"faults":")" + std::string(fault) + "\"";
            line += "}";
        } else if (dice < 90) {
            line = R"({"id":)" + std::to_string(i) +
                   R"(,"op":"health"})";
        } else if (dice < 95) {
            // malformed: must be answered with an in-band error
            line = R"({"id":)" + std::to_string(i) +
                   R"(,"op":"sim","machine":"cm5","xqy":"1Q1"})";
        } else {
            line = "garbage line " + std::to_string(i);
        }
        lines.push_back(std::move(line));
    }
    return lines;
}

struct RunLog
{
    std::vector<svc::ServiceResponse> responses;
    std::string bytes; ///< concatenated response lines
};

RunLog
runStorm(const std::vector<std::string> &lines,
         const svc::ServiceOptions &opts)
{
    RunLog log;
    svc::PlanService service(
        opts, [&log](const svc::ServiceResponse &resp) {
            log.responses.push_back(resp);
            log.bytes += resp.line;
            log.bytes += '\n';
        });
    service.start();
    for (const std::string &line : lines)
        service.submit(line);
    service.stop();
    return log;
}

svc::ServiceOptions
soakOptions(int count)
{
    svc::ServiceOptions opts;
    opts.workers = 4;
    // Capacity >= storm length: backpressure coverage comes from the
    // deterministic satq windows, not from racy real overflow, so
    // the whole response log stays replay-exact (the separate storm
    // test in test_service.cc covers real overflow).
    opts.queueCapacity = static_cast<std::size_t>(count);
    opts.cacheCapacity = 128;
    std::string error;
    auto chaos = svc::SvcChaos::tryParse(
        "seed:13;stall:0.02:1;flip:0.2;satq:100:20;satq:700:10",
        &error);
    EXPECT_TRUE(chaos) << error;
    opts.chaos = *chaos;
    return opts;
}

} // namespace

TEST(ServeSoak, EveryRequestAnsweredOnceAndReplaysBitExact)
{
    const int n = 1000;
    for (std::uint64_t seed : {17ULL, 42ULL, 1995ULL}) {
        std::vector<std::string> lines = makeStorm(seed, n);
        svc::ServiceOptions opts = soakOptions(n);

        RunLog first = runStorm(lines, opts);

        // Exactly one response per request, in arrival order.
        ASSERT_EQ(first.responses.size(),
                  static_cast<std::size_t>(n))
            << "seed " << seed;
        int ok = 0, degraded = 0, rejected = 0, error = 0;
        for (int i = 0; i < n; ++i) {
            const svc::ServiceResponse &r = first.responses[i];
            switch (r.status) {
            case svc::Status::Ok: ++ok; break;
            case svc::Status::Degraded:
                // Degradation must name its fidelity tier.
                EXPECT_NE(r.fidelity, svc::Fidelity::None);
                EXPECT_NE(r.fidelity, svc::Fidelity::Exact);
                ++degraded;
                break;
            case svc::Status::Rejected: ++rejected; break;
            case svc::Status::Error: ++error; break;
            }
        }
        EXPECT_EQ(ok + degraded + rejected + error, n);
        // The chaos satq windows ([100,120) and [700,710)) reject
        // exactly 30 requests, deterministically.
        EXPECT_EQ(rejected, 30) << "seed " << seed;
        EXPECT_GT(ok, 0) << "seed " << seed;
        EXPECT_GT(error, 0) << "seed " << seed; // malformed lines

        // Ids echo the arrival order for every well-formed line
        // (pure-garbage lines answer with id 0).
        for (int i = 0; i < n; ++i) {
            if (lines[i].rfind("garbage", 0) == 0)
                EXPECT_EQ(first.responses[i].id, 0u);
            else
                EXPECT_EQ(first.responses[i].id,
                          static_cast<std::uint64_t>(i));
        }

        // Replay: same stream, same config, fresh pool -- the full
        // response log must match byte for byte.
        RunLog second = runStorm(lines, opts);
        EXPECT_EQ(first.bytes, second.bytes)
            << "seed " << seed
            << ": response log not replay-exact";
    }
}

TEST(ServeSoak, ResponsesDoNotDependOnCacheOrPool)
{
    // The cache and the pool decide only which answers are computed
    // again, never their bytes: replay one chaos storm (cache flips
    // included) from a single-entry cache to one larger than the
    // stream, synchronously and on a pool. Health responses echo
    // workers and cache_capacity, so they differ by design.
    const int n = 300;
    std::vector<std::string> lines = makeStorm(7, n);
    std::string reference;
    for (std::size_t capacity : {1u, 16u, 4096u}) {
        for (int workers : {0, 4}) {
            svc::ServiceOptions opts = soakOptions(n);
            opts.cacheCapacity = capacity;
            opts.workers = workers;
            RunLog log = runStorm(lines, opts);
            ASSERT_EQ(log.responses.size(), static_cast<std::size_t>(n));
            std::string bytes;
            for (const svc::ServiceResponse &r : log.responses) {
                if (r.line.find(R"("op":"health")") != std::string::npos)
                    continue;
                bytes += r.line;
                bytes += '\n';
            }
            if (reference.empty())
                reference = bytes;
            else
                EXPECT_EQ(bytes, reference)
                    << "cache " << capacity << ", workers " << workers;
        }
    }
}
