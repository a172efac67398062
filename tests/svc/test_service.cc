#include "svc/service.h"

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/hash.h"

namespace svc = ct::svc;

namespace {

/** Collects the ordered response stream of one service run. */
struct Collector
{
    std::vector<svc::ServiceResponse> responses;

    svc::PlanService::ResponseSink sink()
    {
        return [this](const svc::ServiceResponse &resp) {
            responses.push_back(resp);
        };
    }
};

svc::ServiceOptions
syncOptions()
{
    svc::ServiceOptions opts;
    opts.workers = 0; // synchronous: the caller is the worker
    return opts;
}

svc::SvcChaos
chaosSpec(const std::string &spec)
{
    std::string error;
    auto parsed = svc::SvcChaos::tryParse(spec, &error);
    EXPECT_TRUE(parsed) << error;
    return parsed ? *parsed : svc::SvcChaos{};
}

/** The storm workload's 1,152 plan lines: twelve patterns squared on
 *  both machines, steady state and three message sizes. */
std::vector<std::string>
stormPlanLines()
{
    static const char *const patterns[] = {
        "1", "2", "3", "4", "8", "16", "32", "64", "256", "1024", "w",
        "16.2"};
    std::vector<std::string> lines;
    for (const char *machine : {"t3d", "paragon"})
        for (const char *x : patterns)
            for (const char *y : patterns)
                for (std::uint64_t bytes : {0, 512, 8192, 131072}) {
                    std::string line =
                        "{\"id\":" + std::to_string(lines.size() + 1) +
                        ",\"op\":\"plan\",\"machine\":\"" + machine +
                        "\",\"xqy\":\"" + x + "Q" + y + "\"";
                    if (bytes)
                        line += ",\"bytes\":" + std::to_string(bytes);
                    lines.push_back(line + "}");
                }
    return lines;
}

} // namespace

TEST(PlanService, AnswersEveryOpWithEnvelope)
{
    Collector out;
    svc::PlanService service(syncOptions(), out.sink());
    service.submit(R"({"id":1,"op":"health"})");
    service.submit(
        R"({"id":2,"op":"plan","machine":"t3d","xqy":"1Q64"})");
    service.submit(
        R"({"id":3,"op":"sim","machine":"t3d","xqy":"1Q4","words":1024})");
    service.stop();

    ASSERT_EQ(out.responses.size(), 3u);
    EXPECT_EQ(out.responses[0].id, 1u);
    EXPECT_EQ(out.responses[0].status, svc::Status::Ok);
    EXPECT_NE(out.responses[0].line.find("\"op\":\"health\""),
              std::string::npos);
    EXPECT_EQ(out.responses[1].fidelity, svc::Fidelity::Analytic);
    EXPECT_NE(out.responses[1].line.find("\"best\":"),
              std::string::npos);
    EXPECT_EQ(out.responses[2].status, svc::Status::Ok);
    EXPECT_EQ(out.responses[2].fidelity, svc::Fidelity::Exact);
    EXPECT_NE(out.responses[2].line.find("\"goodput_mbps\":"),
              std::string::npos);
}

TEST(PlanService, ParseErrorsAnswerInBand)
{
    Collector out;
    svc::PlanService service(syncOptions(), out.sink());
    service.submit("garbage");
    service.submit(R"({"id":5,"op":"frobnicate"})");
    service.stop();

    ASSERT_EQ(out.responses.size(), 2u);
    EXPECT_EQ(out.responses[0].status, svc::Status::Error);
    EXPECT_EQ(out.responses[0].id, 0u);
    EXPECT_EQ(out.responses[1].status, svc::Status::Error);
    EXPECT_EQ(out.responses[1].id, 5u); // id recovered from the line
    EXPECT_EQ(service.metrics().counterValue("svc.parse_errors"),
              2u);
}

TEST(PlanService, DegradationLadderReportsFidelityHonestly)
{
    Collector out;
    svc::PlanService service(syncOptions(), out.sink());
    // Bottom rung: budget below the analytic floor -> model only.
    service.submit(
        R"({"id":1,"op":"sim","machine":"t3d","xqy":"1Q4",)"
        R"("words":1024,"budget":100})");
    // Middle rung: budget cuts the sim mid-flight -> truncated.
    service.submit(
        R"({"id":2,"op":"sim","machine":"t3d","xqy":"1Q1",)"
        R"("words":65536,"budget":5000})");
    // Top rung: no budget -> full-fidelity sim.
    service.submit(
        R"({"id":3,"op":"sim","machine":"t3d","xqy":"1Q4",)"
        R"("words":1024})");
    service.stop();

    ASSERT_EQ(out.responses.size(), 3u);
    EXPECT_EQ(out.responses[0].status, svc::Status::Degraded);
    EXPECT_EQ(out.responses[0].fidelity, svc::Fidelity::Analytic);
    EXPECT_NE(out.responses[0].line.find("\"analytic_mbps\":"),
              std::string::npos);
    EXPECT_EQ(out.responses[1].status, svc::Status::Degraded);
    EXPECT_EQ(out.responses[1].fidelity, svc::Fidelity::Truncated);
    EXPECT_NE(out.responses[1].line.find("\"fidelity\":\"truncated\""),
              std::string::npos);
    EXPECT_EQ(out.responses[2].status, svc::Status::Ok);
    EXPECT_EQ(out.responses[2].fidelity, svc::Fidelity::Exact);

    const auto &m = service.metrics();
    EXPECT_EQ(m.counterValue("svc.deadline.analytic_fallbacks"), 1u);
    EXPECT_EQ(m.counterValue("svc.deadline.truncated"), 1u);
}

TEST(PlanService, OversizedSimIsRefusedInBandAndServiceKeepsAnswering)
{
    // 16M words of 1Q1 are two 128 MiB arrays per 64 MiB T3D node.
    Collector out;
    svc::PlanService service(syncOptions(), out.sink());
    service.submit(
        R"({"id":1,"op":"plan","machine":"t3d","xqy":"1Q64"})");
    service.submit(
        R"({"id":2,"op":"sim","machine":"t3d","xqy":"1Q1","words":16777216})");
    service.submit(R"({"id":3,"op":"health"})");
    service.submit(
        R"({"id":4,"op":"sim","machine":"t3d","xqy":"1Q1","words":1024})");
    service.stop();

    ASSERT_EQ(out.responses.size(), 4u);
    EXPECT_EQ(out.responses[0].status, svc::Status::Ok);
    const svc::ServiceResponse &refused = out.responses[1];
    EXPECT_EQ(refused.id, 2u);
    EXPECT_EQ(refused.status, svc::Status::Error);
    EXPECT_EQ(refused.fidelity, svc::Fidelity::None);
    EXPECT_NE(refused.line.find("16777216 words"), std::string::npos)
        << refused.line;
    EXPECT_NE(refused.line.find("\"node_ram_bytes\":67108864"),
              std::string::npos)
        << refused.line;
    EXPECT_EQ(out.responses[2].id, 3u);
    EXPECT_EQ(out.responses[2].status, svc::Status::Ok);
    EXPECT_EQ(out.responses[3].status, svc::Status::Ok);
    EXPECT_EQ(out.responses[3].fidelity, svc::Fidelity::Exact);
}

TEST(PlanService, SimThatCannotFitItsDegradationIsRefusedInBand)
{
    // 2796156 words of 1Q2 fit a T3D node fault-free. With a dying
    // deposit engine the reliable transport falls back to buffer
    // packing, whose rings no longer fit: built, the sim dies in the
    // node allocator and takes the service down with the next line.
    Collector out;
    svc::PlanService service(syncOptions(), out.sink());
    service.submit(R"({"id":1,"op":"sim","machine":"t3d","xqy":"1Q2",)"
                   R"("words":2796156,"faults":"engine_fail=1",)"
                   R"("budget":100000000})");
    service.submit(R"({"id":2,"op":"health"})");
    service.stop();

    ASSERT_EQ(out.responses.size(), 2u);
    const svc::ServiceResponse &refused = out.responses[0];
    EXPECT_EQ(refused.id, 1u);
    EXPECT_EQ(refused.status, svc::Status::Error);
    EXPECT_EQ(refused.fidelity, svc::Fidelity::None);
    EXPECT_NE(refused.line.find("2796156 words"), std::string::npos)
        << refused.line;
    EXPECT_EQ(out.responses[1].id, 2u);
    EXPECT_EQ(out.responses[1].status, svc::Status::Ok);
}

TEST(PlanService, OutageTargetsTheMachineLacksAreRefusedInBand)
{
    // Built, each of these machines fatal()s in its constructor and
    // takes the service down with every later line unanswered.
    Collector out;
    svc::PlanService service(syncOptions(), out.sink());
    service.submit(R"({"id":1,"op":"sim","machine":"t3d","xqy":"1Q1",)"
                   R"("words":256,"faults":"node_down=64@0"})");
    service.submit(R"({"id":2,"op":"sim","machine":"t3d","xqy":"1Q1",)"
                   R"("words":256,"chaos":"cascade:node:100:0:10"})");
    service.submit(R"({"id":3,"op":"sim","machine":"t3d","xqy":"1Q1",)"
                   R"("words":256})");
    service.stop();

    ASSERT_EQ(out.responses.size(), 3u);
    for (int i : {0, 1}) {
        EXPECT_EQ(out.responses[i].id, static_cast<std::uint64_t>(i + 1));
        EXPECT_EQ(out.responses[i].status, svc::Status::Error);
        EXPECT_EQ(out.responses[i].fidelity, svc::Fidelity::None);
    }
    EXPECT_NE(out.responses[0].line.find("bad node 64"),
              std::string::npos)
        << out.responses[0].line;
    EXPECT_NE(out.responses[1].line.find("100 victims"),
              std::string::npos)
        << out.responses[1].line;
    EXPECT_EQ(out.responses[2].id, 3u);
    EXPECT_EQ(out.responses[2].status, svc::Status::Ok);
}

TEST(PlanService, IdsAreEchoedWithoutAFloatDetour)
{
    svc::ServiceOptions opts = syncOptions();
    opts.chaos = chaosSpec("satq:1:1");
    Collector out;
    svc::PlanService service(opts, out.sink());
    service.submit(R"({"id":9007199254740993,"op":"health"})");
    // Refused at admission, where only peekRequestId reads the id;
    // casting 1e30 to an integer would be undefined behavior.
    service.submit(R"({"id":1e30,"op":"health"})");
    service.submit(R"({"id":18446744073709551615,"op":"health"})");
    service.stop();

    ASSERT_EQ(out.responses.size(), 3u);
    EXPECT_EQ(out.responses[0].id, 9007199254740993ULL);
    EXPECT_EQ(out.responses[0].line.rfind(
                  R"({"id":9007199254740993,)", 0),
              0u)
        << out.responses[0].line;
    EXPECT_EQ(out.responses[1].status, svc::Status::Rejected);
    EXPECT_EQ(out.responses[1].id, 0u);
    EXPECT_EQ(out.responses[2].id, 18446744073709551615ULL);
    EXPECT_EQ(out.responses[2].status, svc::Status::Ok);
}

TEST(PlanService, CacheHitsProduceIdenticalBytes)
{
    Collector out;
    svc::PlanService service(syncOptions(), out.sink());
    const std::string req =
        R"({"id":1,"op":"plan","machine":"t3d","xqy":"1Q64"})";
    service.submit(req);
    service.submit(req);
    service.stop();

    ASSERT_EQ(out.responses.size(), 2u);
    EXPECT_EQ(out.responses[0].line, out.responses[1].line);
    svc::PlanCacheStats s = service.cacheStats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
}

TEST(PlanService, RecentlyUsedSimIsNotResimulated)
{
    // Fewer distinct keys than the capacity come between two uses of
    // the sim key, so it is never evicted: every key misses once.
    svc::ServiceOptions opts = syncOptions();
    opts.cacheCapacity = 4;
    Collector out;
    svc::PlanService service(opts, out.sink());
    const std::string sim =
        R"({"id":0,"op":"sim","machine":"t3d","xqy":"1Q4","words":512})";
    auto plan = [](const char *xqy) {
        return std::string(R"({"id":1,"op":"plan","machine":"t3d",)") +
               R"("xqy":")" + xqy + R"("})";
    };
    const std::vector<std::string> lines = {
        sim,         plan("1Q1"), plan("1Q2"), plan("1Q8"), sim,
        plan("1Q16"), sim,        plan("2Q1"), plan("4Q1"), sim,
    };
    for (const std::string &line : lines)
        service.submit(line);
    service.stop();

    ASSERT_EQ(out.responses.size(), lines.size());
    for (std::size_t i : {4u, 6u, 9u})
        EXPECT_EQ(out.responses[i].line, out.responses[0].line);
    // sim + 1Q1, 1Q2, 1Q8, 1Q16, 2Q1, 4Q1.
    EXPECT_EQ(service.metrics().counterValue("svc.cache.misses"), 7u);
    EXPECT_EQ(service.metrics().counterValue("svc.cache.hits"), 3u);
}

TEST(PlanService, CorruptCacheHitIsRecomputedNotServed)
{
    // flip:1 corrupts every inserted entry; every subsequent lookup
    // must detect the flip, recompute, and still emit the same bytes.
    svc::ServiceOptions opts = syncOptions();
    opts.chaos = chaosSpec("seed:3;flip:1");
    Collector out;
    svc::PlanService service(opts, out.sink());
    const std::string req =
        R"({"id":1,"op":"plan","machine":"t3d","xqy":"1Q64"})";
    service.submit(req);
    service.submit(req);
    service.submit(req);
    service.stop();

    ASSERT_EQ(out.responses.size(), 3u);
    EXPECT_EQ(out.responses[0].line, out.responses[1].line);
    EXPECT_EQ(out.responses[0].line, out.responses[2].line);
    svc::PlanCacheStats s = service.cacheStats();
    EXPECT_EQ(s.corruptHits, 2u);
    EXPECT_EQ(s.hits, 0u);
    EXPECT_EQ(
        service.metrics().counterValue("svc.cache.corrupt_hits"),
        2u);
    EXPECT_EQ(service.metrics().counterValue("svc.chaos.flips"), 3u);
}

TEST(PlanService, ChaosSaturationRejectsDeterministically)
{
    svc::ServiceOptions opts = syncOptions();
    opts.chaos = chaosSpec("satq:1:2");
    Collector out;
    svc::PlanService service(opts, out.sink());
    for (int i = 0; i < 4; ++i)
        service.submit(R"({"id":)" + std::to_string(i) +
                       R"(,"op":"health"})");
    service.stop();

    ASSERT_EQ(out.responses.size(), 4u);
    EXPECT_EQ(out.responses[0].status, svc::Status::Ok);
    EXPECT_EQ(out.responses[1].status, svc::Status::Rejected);
    EXPECT_EQ(out.responses[2].status, svc::Status::Rejected);
    EXPECT_EQ(out.responses[3].status, svc::Status::Ok);
    // A rejected response still carries the request's id.
    EXPECT_EQ(out.responses[1].id, 1u);
    EXPECT_NE(out.responses[1].line.find("\"error\":\"overloaded\""),
              std::string::npos);
    EXPECT_EQ(service.metrics().counterValue(
                  "svc.queue.chaos_saturation_rejects"),
              2u);
}

TEST(PlanService, PoolEmitsInArrivalOrderAndRepliesToEveryone)
{
    // A real pool with stalls: responses must still come back in
    // arrival order, exactly one per request.
    svc::ServiceOptions opts;
    opts.workers = 4;
    opts.queueCapacity = 256;
    opts.chaos = chaosSpec("seed:11;stall:0.4:1");
    Collector out;
    svc::PlanService service(opts, out.sink());
    service.start();
    const int n = 64;
    for (int i = 0; i < n; ++i)
        service.submit(R"({"id":)" + std::to_string(i) +
                       R"(,"op":"plan","machine":"t3d","xqy":"1Q64"})");
    service.stop();

    ASSERT_EQ(out.responses.size(), static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(out.responses[i].id,
                  static_cast<std::uint64_t>(i));
}

TEST(PlanService, RealOverflowRejectsButNeverDrops)
{
    // A tiny queue under a storm: some requests are rejected with
    // real (racy) backpressure, but every request gets exactly one
    // response and admitted ones are answered ok.
    svc::ServiceOptions opts;
    opts.workers = 2;
    opts.queueCapacity = 2;
    Collector out;
    svc::PlanService service(opts, out.sink());
    service.start();
    const int n = 128;
    for (int i = 0; i < n; ++i)
        service.submit(R"({"id":)" + std::to_string(i) +
                       R"(,"op":"health"})");
    service.stop();

    ASSERT_EQ(out.responses.size(), static_cast<std::size_t>(n));
    int ok = 0, rejected = 0;
    for (int i = 0; i < n; ++i) {
        EXPECT_EQ(out.responses[i].id,
                  static_cast<std::uint64_t>(i));
        if (out.responses[i].status == svc::Status::Ok)
            ++ok;
        else if (out.responses[i].status == svc::Status::Rejected)
            ++rejected;
    }
    EXPECT_EQ(ok + rejected, n) << "a response was neither ok nor "
                                   "an explicit reject";
    EXPECT_GT(ok, 0);
    const auto &m = service.metrics();
    EXPECT_EQ(m.counterValue("svc.queue.overload_rejects"),
              static_cast<std::uint64_t>(rejected));
    EXPECT_EQ(m.counterValue("svc.responses.ok") +
                  m.counterValue("svc.responses.rejected"),
              static_cast<std::uint64_t>(n));
}

TEST(PlanService, BudgetIsPartOfTheCacheKey)
{
    // The same query at different budgets must not share an entry: a
    // truncated answer served to a full-fidelity client would be a
    // silent lie.
    Collector out;
    svc::PlanService service(syncOptions(), out.sink());
    service.submit(
        R"({"id":1,"op":"sim","machine":"t3d","xqy":"1Q1",)"
        R"("words":65536,"budget":5000})");
    service.submit(
        R"({"id":2,"op":"sim","machine":"t3d","xqy":"1Q1",)"
        R"("words":65536})");
    service.stop();

    ASSERT_EQ(out.responses.size(), 2u);
    EXPECT_EQ(out.responses[0].fidelity, svc::Fidelity::Truncated);
    EXPECT_EQ(out.responses[1].fidelity, svc::Fidelity::Exact);
    EXPECT_EQ(service.cacheStats().hits, 0u);
}

TEST(PlanService, StormPlanAnswersKeepTheirBytes)
{
    // Every storm plan answer, first as a miss and then as a hit,
    // against a hash of the bytes the service has always produced.
    svc::ServiceOptions opts = syncOptions();
    opts.cacheCapacity = 2048;
    svc::PlanService service(opts, [](const svc::ServiceResponse &) {});
    std::vector<std::string> lines = stormPlanLines();
    ASSERT_EQ(lines.size(), 1152u);
    std::vector<std::string> answers;
    std::string log;
    for (const std::string &line : lines) {
        answers.push_back(service.handleLine(line).line);
        log += answers.back() + "\n";
    }
    EXPECT_EQ(ct::util::fnv1a(log), 0x9f68b697adcda645ULL) << log;
    EXPECT_EQ(service.cacheStats().misses, lines.size());
    for (std::size_t i = 0; i < lines.size(); ++i)
        EXPECT_EQ(service.handleLine(lines[i]).line, answers[i]);
    EXPECT_EQ(service.cacheStats().hits, lines.size());
}
