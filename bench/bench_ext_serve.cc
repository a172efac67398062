/**
 * @file
 * Extension bench (not a paper table): the planning service under a
 * deterministic request storm, clean versus self-chaos. Each row
 * pushes the same generated NDJSON stream through a 4-worker
 * PlanService twice and records the response-status census plus a
 * replay bit-identity flag, so the perf gate doubles as a
 * crash-calm-contract gate: a dropped response, a mislabelled
 * fidelity tier, a chaos reject drifting to a different request, or
 * any nondeterminism in the response log shows up as a baseline
 * diff. All counters are response-content censuses -- pure functions
 * of the request stream and service config -- never cache hit/miss
 * or timing state, which scheduling is allowed to vary.
 */

#include <string>
#include <vector>

#include "bench_util.h"
#include "svc/service.h"
#include "util/rng.h"

namespace {

using namespace ct;

/** Deterministic mixed-op request stream (ids 0..count-1). */
std::vector<std::string>
makeStorm(std::uint64_t seed, int count)
{
    util::Rng rng(seed);
    const char *machines[] = {"t3d", "paragon"};
    const char *patterns[] = {"1Q64", "1Q4", "wQw", "1Q1"};
    std::vector<std::string> lines;
    lines.reserve(count);
    for (int i = 0; i < count; ++i) {
        std::uint64_t dice = rng.nextBelow(100);
        std::string line;
        if (dice < 45) {
            line = R"({"id":)" + std::to_string(i) +
                   R"(,"op":"plan","machine":")" +
                   machines[rng.nextBelow(2)] + R"(","xqy":")" +
                   patterns[rng.nextBelow(4)] + "\"}";
        } else if (dice < 75) {
            std::uint64_t budget_dice = rng.nextBelow(3);
            std::uint64_t budget = budget_dice == 0 ? 0
                                   : budget_dice == 1
                                       ? 200 + rng.nextBelow(500)
                                       : 4096 + rng.nextBelow(2048);
            line = R"({"id":)" + std::to_string(i) +
                   R"(,"op":"sim","machine":")" +
                   machines[rng.nextBelow(2)] + R"(","xqy":")" +
                   patterns[rng.nextBelow(4)] + R"(","words":)" +
                   std::to_string(512u << rng.nextBelow(2));
            if (budget)
                line += R"(,"budget":)" + std::to_string(budget);
            line += "}";
        } else if (dice < 92) {
            line = R"({"id":)" + std::to_string(i) +
                   R"(,"op":"health"})";
        } else {
            // malformed on purpose: answered with an in-band error
            line = R"({"id":)" + std::to_string(i) +
                   R"(,"op":"sim","machine":"cm5","xqy":"1Q1"})";
        }
        lines.push_back(std::move(line));
    }
    return lines;
}

std::string
runOnce(const std::vector<std::string> &lines,
        const svc::ServiceOptions &opts, std::uint64_t census[4])
{
    std::string log;
    svc::PlanService service(
        opts, [&](const svc::ServiceResponse &resp) {
            ++census[static_cast<int>(resp.status)];
            log += resp.line;
            log += '\n';
        });
    service.start();
    for (const std::string &line : lines)
        service.submit(line);
    service.stop();
    return log;
}

void
serveRow(benchmark::State &state)
{
    bool with_chaos = state.range(0) != 0;
    const int n = 160;

    std::uint64_t census[4] = {0, 0, 0, 0};
    double replay_identical = 0.0;
    for (auto _ : state) {
        std::vector<std::string> lines = makeStorm(1995, n);
        svc::ServiceOptions opts;
        opts.workers = 4;
        // Capacity >= storm length: rejects come only from the
        // deterministic satq windows, keeping the census replayable.
        opts.queueCapacity = n;
        opts.cacheCapacity = 64;
        if (with_chaos) {
            std::string error;
            auto chaos = svc::SvcChaos::tryParse(
                "seed:13;stall:0.05:1;flip:0.3;satq:40:10", &error);
            if (!chaos)
                state.SkipWithError(error.c_str());
            else
                opts.chaos = *chaos;
        }

        census[0] = census[1] = census[2] = census[3] = 0;
        std::string first = runOnce(lines, opts, census);
        std::uint64_t replay_census[4] = {0, 0, 0, 0};
        std::string second = runOnce(lines, opts, replay_census);
        replay_identical = first == second ? 1.0 : 0.0;
    }
    using bench::setCounter;
    setCounter(state, "responses_ok",
               static_cast<double>(
                   census[static_cast<int>(svc::Status::Ok)]));
    setCounter(state, "responses_degraded",
               static_cast<double>(
                   census[static_cast<int>(svc::Status::Degraded)]));
    setCounter(state, "responses_rejected",
               static_cast<double>(
                   census[static_cast<int>(svc::Status::Rejected)]));
    setCounter(state, "responses_error",
               static_cast<double>(
                   census[static_cast<int>(svc::Status::Error)]));
    setCounter(state, "replay_identical", replay_identical);
}

void
registerAll()
{
    auto *b = benchmark::RegisterBenchmark("serve_storm/chaos",
                                           serveRow);
    b->Iterations(1)->Unit(benchmark::kMillisecond);
    b->Arg(0); // clean
    b->Arg(1); // self-chaos: stalls + cache flips + satq rejects
}

} // namespace

int
main(int argc, char **argv)
{
    registerAll();
    return ct::bench::runBenchmarks(argc, argv, "ext_serve",
                                    "BENCH_serve.json");
}
