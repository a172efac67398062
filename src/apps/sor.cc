#include "sor.h"

#include "util/logging.h"

namespace ct::apps {

SorWorkload
SorWorkload::create(Machine &machine, const SorConfig &cfg)
{
    auto nodes = static_cast<std::uint64_t>(machine.nodeCount());
    if (cfg.n % nodes != 0)
        util::fatal("SorWorkload: n must be divisible by node count");

    SorWorkload w;
    w.dim = cfg.n;
    w.rowsPer = cfg.n / nodes;
    w.periodic = cfg.periodic;
    w.commOp.name = "SOR overlap exchange";

    for (std::uint64_t p = 0; p < nodes; ++p) {
        sim::NodeRam &ram = machine.node(static_cast<NodeId>(p)).ram();
        w.base.push_back(ram.alloc((w.rowsPer + 2) * cfg.n * 8));
    }

    auto add_shift = [&](std::uint64_t from, std::uint64_t to,
                         std::uint64_t src_row,
                         std::uint64_t dst_row) {
        rt::Flow flow;
        flow.src = static_cast<NodeId>(from);
        flow.dst = static_cast<NodeId>(to);
        flow.words = cfg.n;
        flow.srcWalk = sim::contiguousWalk(
            w.rowAddr(static_cast<int>(from), src_row));
        flow.dstWalk = sim::contiguousWalk(
            w.rowAddr(static_cast<int>(to), dst_row));
        flow.dstWalkOnSender = flow.dstWalk;
        w.commOp.flows.push_back(flow);
    };

    for (std::uint64_t p = 0; p < nodes; ++p) {
        bool has_south = p + 1 < nodes || cfg.periodic;
        bool has_north = p > 0 || cfg.periodic;
        std::uint64_t south = (p + 1) % nodes;
        std::uint64_t north = (p + nodes - 1) % nodes;
        // Last interior row -> south neighbour's top ghost row.
        if (has_south)
            add_shift(p, south, w.rowsPer, 0);
        // First interior row -> north neighbour's bottom ghost row.
        if (has_north)
            add_shift(p, north, 1, w.rowsPer + 1);
    }
    return w;
}

Addr
SorWorkload::rowAddr(int p, std::uint64_t r) const
{
    return base[static_cast<std::size_t>(p)] + r * dim * 8;
}

void
SorWorkload::fillInterior(Machine &machine) const
{
    auto nodes = static_cast<std::uint64_t>(machine.nodeCount());
    for (std::uint64_t p = 0; p < nodes; ++p) {
        sim::NodeRam &ram = machine.node(static_cast<NodeId>(p)).ram();
        for (std::uint64_t r = 1; r <= rowsPer; ++r) {
            std::uint64_t row = p * rowsPer + (r - 1);
            for (std::uint64_t col = 0; col < dim; ++col)
                ram.writeDouble(rowAddr(static_cast<int>(p), r) +
                                    col * 8,
                                static_cast<double>(row * dim + col +
                                                    1));
        }
    }
}

std::uint64_t
SorWorkload::verify(Machine &machine) const
{
    return rt::verifyDelivery(machine, commOp);
}

void
SorWorkload::relaxInterior(Machine &machine, double omega) const
{
    auto nodes = static_cast<std::uint64_t>(machine.nodeCount());
    for (std::uint64_t p = 0; p < nodes; ++p) {
        sim::NodeRam &ram = machine.node(static_cast<NodeId>(p)).ram();
        auto at = [&](std::uint64_t r, std::uint64_t c) {
            return rowAddr(static_cast<int>(p), r) + c * 8;
        };
        for (std::uint64_t r = 1; r <= rowsPer; ++r) {
            for (std::uint64_t c = 1; c + 1 < dim; ++c) {
                double center = ram.readDouble(at(r, c));
                double neighbours =
                    ram.readDouble(at(r - 1, c)) +
                    ram.readDouble(at(r + 1, c)) +
                    ram.readDouble(at(r, c - 1)) +
                    ram.readDouble(at(r, c + 1));
                double relaxed = (1.0 - omega) * center +
                                 omega * 0.25 * neighbours;
                ram.writeDouble(at(r, c), relaxed);
            }
        }
    }
}

} // namespace ct::apps
