/**
 * @file
 * One exchange driver: rt::SimBackend runs every single-shot
 * simulated exchange. `ctplan sim`'s transports are registry
 * programs, and the backend, the planning service and a sweep cell
 * answer the same exchange the same way -- a dead endpoint's words
 * are lost, not corrupt. (`ctplan sim` itself is pinned by the
 * golden transcripts and the ctplan_sim_planned_out test.)
 */

#include <string>

#include <gtest/gtest.h>

#include "core/style_registry.h"
#include "rt/chained_layer.h"
#include "rt/sim_backend.h"
#include "svc/service.h"
#include "sweep/grid.h"

namespace {

using namespace ct;
using P = core::AccessPattern;

/** The service's answer to one sim request line. */
std::string
serveSim(const std::string &xqy, std::uint64_t words,
         const std::string &faults)
{
    svc::ServiceOptions opts;
    opts.workers = 0;
    svc::PlanService service(opts, [](const svc::ServiceResponse &) {});
    return service
        .handleLine(R"({"id":1,"op":"sim","machine":"t3d","xqy":")" +
                    xqy + R"(","words":)" + std::to_string(words) +
                    R"(,"faults":")" + faults + R"("})")
        .line;
}

/** One sweep cell of the T3D chained exchange xQy under @p faults. */
sweep::CellResult
sweepCell(const std::string &x, const std::string &y,
          std::uint64_t words, const std::string &faults)
{
    std::string error;
    auto grid = sweep::Grid::parse(
        "kind=exchange;machine=t3d;style=chained;x=" + x + ";y=" + y +
            ";words=" + std::to_string(words) + ";faults=" + faults,
        &error);
    if (!grid || grid->cells().size() != 1) {
        ADD_FAILURE() << "not a one-cell grid: " << error;
        return {};
    }
    return sweep::runCell(grid->cells().front());
}

/** SimBackend's run of the reliable chained T3D exchange. */
rt::SimRun
backendRun(P x, P y, std::uint64_t words, const std::string &faults)
{
    sim::MachineConfig cfg = sim::configFor(core::MachineId::T3d);
    cfg.faults = sim::FaultSpec::parse(faults);
    auto program =
        core::buildProgram(core::MachineId::T3d, "chained", x, y);
    if (!program) {
        ADD_FAILURE() << "no chained program";
        return {};
    }
    return rt::SimBackend(cfg).exchange(
        core::withReliability(*program), words);
}

TEST(ExchangeDriver, EveryTransportIsARegistryProgram)
{
    // --transport=reliable runs chained behind the reliable
    // transport, raw runs chained, packing runs buffer-packing. The
    // builders branch on the pattern kind only, so one label per
    // kind (contiguous, strided, block-strided, indexed) covers
    // every operation `ctplan sim` accepts.
    const char *labels[] = {"1", "2", "16", "16.2", "1024", "w"};
    for (core::MachineId id :
         {core::MachineId::T3d, core::MachineId::Paragon})
        for (const char *xl : labels)
            for (const char *yl : labels) {
                P x = *P::parse(xl), y = *P::parse(yl);
                auto chained = core::buildProgram(id, "chained", x, y);
                auto packing =
                    core::buildProgram(id, "buffer-packing", x, y);
                ASSERT_TRUE(chained && packing) << xl << "Q" << yl;
                EXPECT_EQ(rt::lowerProgram(*chained)->name(), "chained");
                EXPECT_EQ(
                    rt::lowerProgram(core::withReliability(*chained))
                        ->name(),
                    "reliable+chained");
                EXPECT_EQ(rt::lowerProgram(*packing)->name(),
                          "buffer-packing");
                // The registry's software costs are the layers'
                // defaults, so the programs run the layers ctplan
                // used to build by hand.
                EXPECT_EQ(chained->costs.startup(),
                          rt::ChainedOptions{}.flowSetupOverhead);
                EXPECT_EQ(chained->costs.stepSync,
                          rt::ChainedOptions{}.stepSyncCycles);
                rt::PackingOptions pack;
                EXPECT_EQ(packing->costs.senderStartup,
                          pack.senderMessageOverhead);
                EXPECT_EQ(packing->costs.receiverStartup,
                          pack.receiverMessageOverhead);
                EXPECT_EQ(packing->costs.stepSync, pack.stepSyncCycles);
            }
}

TEST(ExchangeDriver, CallersReportAMidRunDeadEndpointAsLost)
{
    // Node 1 dies at cycle 40000, mid-exchange: both flows of its
    // pair (2 x 4096 words) are lost; the rest verifies bit-exact.
    const std::string faults = "node_down=1@40000,seed=3";
    rt::SimRun run =
        backendRun(P::contiguous(), P::strided(4), 4096, faults);
    EXPECT_EQ(run.corruptWords, 0u);
    EXPECT_EQ(run.lostWords, 8192u);
    EXPECT_EQ(run.result.makespan, 140436u);

    std::string line = serveSim("1Q4", 4096, faults);
    EXPECT_NE(line.find(R"("status":"ok")"), std::string::npos) << line;
    EXPECT_NE(line.find(R"("makespan_cycles":140436)"),
              std::string::npos)
        << line;
    EXPECT_NE(line.find(R"("lost_words":8192)"), std::string::npos)
        << line;
    EXPECT_EQ(line.find("corrupt"), std::string::npos) << line;

    sweep::CellResult cell = sweepCell("1", "4", 4096, faults);
    EXPECT_EQ(cell.corruptWords, 0u);
    EXPECT_EQ(cell.lostWords, 8192u);
    EXPECT_EQ(cell.makespanCycles, 140436u);
    EXPECT_NE(sweep::resultsJson({cell}).find(R"("lost_words": 8192)"),
              std::string::npos);
}

TEST(ExchangeDriver, CallersPlanOutANodeDownFromCycleZero)
{
    // Node 3 is down before the run starts: its pair's flows are
    // planned out before seeding, so the layer never carries them
    // (6 of 8 nodes' payload) and nothing times out.
    const std::string faults = "node_down=3@0";
    const std::uint64_t words = 1024;
    rt::SimRun run =
        backendRun(P::contiguous(), P::strided(4), words, faults);
    EXPECT_EQ(run.corruptWords, 0u);
    EXPECT_EQ(run.lostWords, 2 * words);
    EXPECT_EQ(run.result.payloadBytes, 6 * words * 8);
    EXPECT_EQ(run.transport.deadEndpointDrops, 0u);

    std::string line = serveSim("1Q4", words, faults);
    EXPECT_NE(line.find(R"("status":"ok")"), std::string::npos) << line;
    EXPECT_NE(line.find(R"("lost_words":2048)"), std::string::npos)
        << line;

    sweep::CellResult cell = sweepCell("1", "4", words, faults);
    EXPECT_EQ(cell.corruptWords, 0u);
    EXPECT_EQ(cell.lostWords, 2 * words);
    EXPECT_EQ(cell.makespanCycles,
              static_cast<std::uint64_t>(run.result.makespan));
}

} // namespace
