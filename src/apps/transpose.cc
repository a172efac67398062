#include "transpose.h"

#include <ostream>

#include "util/logging.h"

namespace ct::apps {

void
PrintTo(TransposeVariant variant, std::ostream *os)
{
    *os << (variant == TransposeVariant::StridedStores ? "StridedStores"
                                                       : "StridedLoads");
}

TransposeWorkload
TransposeWorkload::create(Machine &machine,
                          const TransposeConfig &config)
{
    auto nodes = static_cast<std::uint64_t>(machine.nodeCount());
    if (config.n % nodes != 0)
        util::fatal("TransposeWorkload: n (", config.n,
                    ") must be divisible by the node count (", nodes,
                    ")");

    TransposeWorkload w;
    w.dim = config.n;
    w.rowsPer = config.n / nodes;
    const std::uint64_t n = w.dim;
    const std::uint64_t rows = w.rowsPer;

    for (std::uint64_t p = 0; p < nodes; ++p) {
        sim::NodeRam &ram = machine.node(static_cast<NodeId>(p)).ram();
        w.aBase.push_back(ram.alloc(rows * n * 8));
        w.bBase.push_back(ram.alloc(rows * n * 8));
    }

    w.commOp.name = config.variant == TransposeVariant::StridedStores
                        ? "transpose (strided stores)"
                        : "transpose (strided loads)";

    // Local element addresses: node p holds global rows
    // [p*rows, (p+1)*rows), row-major.
    auto a_addr = [&](std::uint64_t p, std::uint64_t row,
                      std::uint64_t col) {
        return w.aBase[p] + ((row - p * rows) * n + col) * 8;
    };
    auto b_addr = [&](std::uint64_t q, std::uint64_t row,
                      std::uint64_t col) {
        return w.bBase[q] + ((row - q * rows) * n + col) * 8;
    };

    for (std::uint64_t p = 0; p < nodes; ++p) {
        // Rotation schedule: node p serves partners p+1, p+2, ... so
        // that no receiver is hit by every sender at once (the
        // all-to-all staggering of the paper's reference [8]).
        for (std::uint64_t step = 0; step < nodes; ++step) {
            std::uint64_t q = (p + step) % nodes;
            if (p == q && !config.includeLocalFlows)
                continue;
            if (config.variant == TransposeVariant::StridedStores) {
                // One flow per source row j of the patch: the
                // contiguous run a[j][q*rows .. q*rows+rows) scatters
                // into column j of B with stride n (1Qn).
                for (std::uint64_t j = p * rows; j < (p + 1) * rows;
                     ++j) {
                    rt::Flow flow;
                    flow.src = static_cast<NodeId>(p);
                    flow.dst = static_cast<NodeId>(q);
                    flow.words = rows;
                    flow.srcWalk = sim::contiguousWalk(
                        a_addr(p, j, q * rows));
                    flow.dstWalk = sim::stridedWalk(
                        b_addr(q, q * rows, j),
                        static_cast<std::uint32_t>(n));
                    flow.dstWalkOnSender = flow.dstWalk;
                    w.commOp.flows.push_back(flow);
                }
            } else {
                // One flow per destination row i: column i of A is
                // gathered with stride n into the contiguous run
                // b[i][p*rows ..) (nQ1).
                for (std::uint64_t i = q * rows; i < (q + 1) * rows;
                     ++i) {
                    rt::Flow flow;
                    flow.src = static_cast<NodeId>(p);
                    flow.dst = static_cast<NodeId>(q);
                    flow.words = rows;
                    flow.srcWalk = sim::stridedWalk(
                        a_addr(p, p * rows, i),
                        static_cast<std::uint32_t>(n));
                    flow.dstWalk = sim::contiguousWalk(
                        b_addr(q, i, p * rows));
                    flow.dstWalkOnSender = flow.dstWalk;
                    w.commOp.flows.push_back(flow);
                }
            }
        }
    }
    return w;
}

Addr
TransposeWorkload::aAddr(std::uint64_t row, std::uint64_t col) const
{
    std::uint64_t p = row / rowsPer;
    return aBase[p] + ((row - p * rowsPer) * dim + col) * 8;
}

Addr
TransposeWorkload::bAddr(std::uint64_t row, std::uint64_t col) const
{
    std::uint64_t p = row / rowsPer;
    return bBase[p] + ((row - p * rowsPer) * dim + col) * 8;
}

NodeId
TransposeWorkload::ownerOf(std::uint64_t row) const
{
    return static_cast<NodeId>(row / rowsPer);
}

void
TransposeWorkload::fillInput(Machine &machine) const
{
    auto nodes = static_cast<std::uint64_t>(machine.nodeCount());
    for (std::uint64_t p = 0; p < nodes; ++p) {
        sim::NodeRam &ram = machine.node(static_cast<NodeId>(p)).ram();
        for (std::uint64_t r = 0; r < rowsPer; ++r) {
            std::uint64_t row = p * rowsPer + r;
            for (std::uint64_t col = 0; col < dim; ++col)
                ram.writeWord(aBase[p] + (r * dim + col) * 8,
                              row * dim + col + 1);
        }
    }
}

std::uint64_t
TransposeWorkload::verify(Machine &machine) const
{
    std::uint64_t mismatches = 0;
    auto nodes = static_cast<std::uint64_t>(machine.nodeCount());
    for (std::uint64_t q = 0; q < nodes; ++q) {
        sim::NodeRam &ram = machine.node(static_cast<NodeId>(q)).ram();
        for (std::uint64_t r = 0; r < rowsPer; ++r) {
            std::uint64_t i = q * rowsPer + r;
            for (std::uint64_t j = 0; j < dim; ++j) {
                std::uint64_t p = j / rowsPer;
                if (p == q)
                    continue; // diagonal block only moves locally
                std::uint64_t got =
                    ram.readWord(bBase[q] + (r * dim + j) * 8);
                std::uint64_t want = j * dim + i + 1; // a[j][i]
                mismatches += got != want;
            }
        }
    }
    return mismatches;
}

} // namespace ct::apps
