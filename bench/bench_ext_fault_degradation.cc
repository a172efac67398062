/**
 * @file
 * Extension bench (not a paper table): goodput of the reliable
 * chained layer as the wire degrades. Sweeps packet-drop rate x
 * message size; reports delivered goodput, total wire bytes (every
 * retransmission and ack included), retransmission count, and
 * whether the run had to degrade to the buffer-packing path.
 * Goodput must fall monotonically as the drop rate rises: the
 * payload is fixed while timeouts and retransmissions stretch the
 * makespan and burn extra wire bandwidth. Cells run through the
 * sweep farm (BENCH_THREADS workers); each builds its own Machine.
 */

#include <vector>

#include "bench_util.h"
#include "rt/collectives.h"
#include "rt/reliable_layer.h"
#include "rt/workload.h"
#include "util/logging.h"

namespace {

using namespace ct;
using namespace ct::bench;
using P = core::AccessPattern;

std::vector<std::pair<std::string, double>>
faultCell(std::int64_t drop_x10000, std::uint64_t words)
{
    // drop rate in 1/10000ths so the integer row names stay readable.
    double drop = static_cast<double>(drop_x10000) / 10000.0;
    auto cfg = sim::t3dConfig({2, 1, 1});
    if (drop > 0.0)
        cfg.faults = sim::FaultSpec::parse(
            "drop=" + std::to_string(drop) + ",seed=1");
    sim::Machine m(cfg);
    auto op = rt::pairExchange(m, P::strided(4), P::strided(4), words);
    rt::seedSources(m, op);
    auto layer = rt::makeReliableChained();
    auto r = layer->run(m, op);
    if (rt::verifyDelivery(m, op) != 0)
        util::fatal("fault sweep: corrupted delivery");
    return {{"goodput_MBps", r.perNodeMBps(m)},
            {"wire_bytes",
             static_cast<double>(m.network().stats().wireBytes)},
            {"retransmits",
             static_cast<double>(layer->stats().retransmits)},
            {"dropped",
             static_cast<double>(m.network().stats().droppedPackets)},
            {"degraded", r.degraded ? 1.0 : 0.0}};
}

std::vector<std::pair<std::string, double>>
engineFailCell(std::uint64_t words)
{
    auto cfg = sim::t3dConfig({2, 1, 1});
    cfg.faults = sim::FaultSpec::parse("engine_fail=1,seed=1");
    sim::Machine m(cfg);
    auto op = rt::pairExchange(m, P::strided(4), P::strided(4), words);
    rt::seedSources(m, op);
    auto layer = rt::makeReliableChained();
    auto r = layer->run(m, op);
    if (rt::verifyDelivery(m, op) != 0)
        util::fatal("engine-fail sweep: corrupted delivery");
    return {{"goodput_MBps", r.perNodeMBps(m)},
            {"degraded", r.degraded ? 1.0 : 0.0}};
}

std::vector<std::pair<std::string, double>>
outageCell(bool down, std::uint64_t words)
{
    // All-to-all on a 2x2x2 torus with one network link downed from
    // cycle 0: every packet that would have crossed it detours.
    auto cfg = sim::t3dConfig({2, 2, 2});
    if (down)
        cfg.faults = sim::FaultSpec::parse("link_down=0@0");
    sim::Machine m(cfg);
    auto layer = rt::makeReliableChained();
    auto r = rt::allToAll(m, *layer, words);
    return {{"goodput_MBps", r.perNodeMBps(m)},
            {"rerouted_packets",
             static_cast<double>(m.network().stats().reroutedPackets)},
            {"rerouted_links",
             static_cast<double>(r.reroutedLinks)}};
}

void
registerAll()
{
    std::vector<SweepCell> cells;
    for (std::int64_t words : {1024, 8192}) {
        // 0, 0.1%, 1%, 5%, 10% packet loss.
        for (std::int64_t drop : {0, 10, 100, 500, 1000}) {
            auto w = static_cast<std::uint64_t>(words);
            cells.push_back(
                {"reliable_chained_goodput/drop_x10000/words/" +
                     std::to_string(drop) + "/" +
                     std::to_string(words),
                 [drop, w] { return faultCell(drop, w); }});
        }
    }
    for (std::int64_t words : {1024, 8192}) {
        auto w = static_cast<std::uint64_t>(words);
        cells.push_back({"reliable_chained_engine_fail/words/" +
                             std::to_string(words),
                         [w] { return engineFailCell(w); }});
    }
    for (std::int64_t down : {0, 1})
        cells.push_back({"reliable_chained_link_outage/down/words/" +
                             std::to_string(down) + "/512",
                         [down] {
                             return outageCell(down != 0, 512);
                         }});
    registerSweep(std::move(cells), benchmark::kMillisecond);
}

} // namespace

int
main(int argc, char **argv)
{
    registerAll();
    return ct::bench::runBenchmarks(argc, argv, "ext_fault_degradation",
                                    "BENCH_fault.json");
}
