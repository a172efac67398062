/**
 * @file
 * Reproduces Figure 1: measured application throughput for simple
 * (contiguous) communication operations, comparing the portable
 * PVM-style library against the fastest vendor-specific path, as a
 * function of the message size. The shape to check: the low-level
 * layers sit far above PVM, whose throughput only slowly approaches
 * theirs as messages grow, and both stay well below the wire's peak
 * bandwidth. Cells run through the sweep farm (BENCH_THREADS
 * workers).
 */

#include "bench_util.h"

#include "core/latency_model.h"

namespace {

using namespace ct;
using namespace ct::bench;
using P = core::AccessPattern;

void
registerAll()
{
    struct Entry
    {
        const char *name;
        MachineId machine;
        core::Style style;
    };
    // "Fastest" on the T3D is the chained/remote-store path (libsm);
    // on the Paragon the SUNMOS NX packing path with DMA transfers.
    const Entry entries[] = {
        {"T3D/pvm", MachineId::T3d, core::Style::Pvm},
        {"T3D/libsm_chained", MachineId::T3d, core::Style::Chained},
        {"Paragon/pvm", MachineId::Paragon, core::Style::Pvm},
        {"Paragon/sunmos_packing", MachineId::Paragon,
         core::Style::BufferPacking},
        {"Paragon/sunmos_chained", MachineId::Paragon,
         core::Style::Chained},
    };
    std::vector<SweepCell> cells;
    for (const Entry &entry : entries) {
        for (std::uint64_t words = 64; words <= (1 << 16);
             words *= 4) {
            cells.push_back(
                {std::string(entry.name) + "/" +
                     std::to_string(words),
                 [entry, words]()
                     -> std::vector<std::pair<std::string, double>> {
                     std::vector<std::pair<std::string, double>> out{
                         {"sim_MBps",
                          exchangeMBps(entry.machine, entry.style,
                                       P::contiguous(),
                                       P::contiguous(), words)},
                         {"message_KB",
                          static_cast<double>(words * 8) / 1024.0}};
                     // The latency-extended model's prediction of
                     // the same curve.
                     out.emplace_back(
                         "latency_model_MBps",
                         modelCost(entry.machine, entry.style,
                                   P::contiguous(), P::contiguous())
                             .throughputAt(words * 8));
                     return out;
                 }});
        }
    }
    registerSweep(std::move(cells), benchmark::kMillisecond);
}

} // namespace

int
main(int argc, char **argv)
{
    registerAll();
    return ct::bench::runBenchmarks(argc, argv, "fig1_library_throughput");
}
