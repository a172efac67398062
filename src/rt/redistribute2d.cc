#include "redistribute2d.h"

#include "rt/workload.h"
#include "util/logging.h"

namespace ct::rt {

std::vector<std::pair<std::size_t, std::size_t>>
splitAffineRuns(const std::vector<std::uint64_t> &src,
                const std::vector<std::uint64_t> &dst)
{
    if (src.size() != dst.size())
        util::fatal("splitAffineRuns: list length mismatch");
    std::vector<std::pair<std::size_t, std::size_t>> runs;
    std::size_t n = src.size();
    std::size_t start = 0;
    while (start < n) {
        std::size_t len = 1;
        if (start + 1 < n) {
            // Deltas may be negative (transposes walk backwards on
            // one side); track them as signed.
            auto sd = static_cast<std::int64_t>(src[start + 1]) -
                      static_cast<std::int64_t>(src[start]);
            auto dd = static_cast<std::int64_t>(dst[start + 1]) -
                      static_cast<std::int64_t>(dst[start]);
            while (start + len < n) {
                std::size_t i = start + len;
                auto s2 = static_cast<std::int64_t>(src[i]) -
                          static_cast<std::int64_t>(src[i - 1]);
                auto d2 = static_cast<std::int64_t>(dst[i]) -
                          static_cast<std::int64_t>(dst[i - 1]);
                if (s2 != sd || d2 != dd)
                    break;
                ++len;
            }
        }
        runs.emplace_back(start, len);
        start += len;
    }
    return runs;
}

namespace {

/**
 * Walk for a monotone affine run; falls back to an index array for
 * non-monotone runs (negative deltas).
 */
sim::PatternWalk
runWalk(const std::vector<std::uint64_t> &offsets, std::size_t start,
        std::size_t len, Addr base, sim::Node &index_home)
{
    std::vector<std::uint64_t> slice(
        offsets.begin() + static_cast<std::ptrdiff_t>(start),
        offsets.begin() + static_cast<std::ptrdiff_t>(start + len));
    return walkForIndices(slice, base, index_home);
}

} // namespace

Redistribution2dWorkload
Redistribution2dWorkload::create(sim::Machine &machine,
                                 const core::Distribution2d &from,
                                 const core::Distribution2d &to,
                                 bool transpose)
{
    if (from.nodes() != machine.nodeCount() ||
        to.nodes() != machine.nodeCount())
        util::fatal("Redistribution2dWorkload: distributions must "
                    "span the machine");

    Redistribution2dWorkload w;
    w.fromDist = from;
    w.toDist = to;
    w.transposed = transpose;
    w.commOp.name = to.name() + (transpose ? " = transpose "
                                           : " = ") +
                    from.name();

    int nodes = machine.nodeCount();
    for (int node = 0; node < nodes; ++node) {
        sim::NodeRam &ram = machine.node(node).ram();
        w.srcBase.push_back(ram.alloc(
            std::max<std::uint64_t>(1, from.localWords(node)) * 8));
        w.dstBase.push_back(ram.alloc(
            std::max<std::uint64_t>(1, to.localWords(node)) * 8));
    }

    for (int p = 0; p < nodes; ++p) {
        for (int step = 0; step < nodes; ++step) {
            int q = (p + step) % nodes; // rotation schedule
            auto pair = core::redistribution2dIndices(from, to, p, q,
                                                      transpose);
            if (pair.srcOffsets.empty())
                continue;
            auto runs =
                splitAffineRuns(pair.srcOffsets, pair.dstOffsets);
            for (auto [start, len] : runs) {
                Flow flow;
                flow.src = p;
                flow.dst = q;
                flow.words = len;
                flow.srcWalk = runWalk(
                    pair.srcOffsets, start, len,
                    w.srcBase[static_cast<std::size_t>(p)],
                    machine.node(p));
                flow.dstWalk = runWalk(
                    pair.dstOffsets, start, len,
                    w.dstBase[static_cast<std::size_t>(q)],
                    machine.node(q));
                flow.dstWalkOnSender =
                    flow.dstWalk.pattern.isIndexed()
                        ? runWalk(pair.dstOffsets, start, len,
                                  w.dstBase[static_cast<std::size_t>(
                                      q)],
                                  machine.node(p))
                        : flow.dstWalk;
                w.commOp.flows.push_back(flow);
            }
        }
    }
    return w;
}

void
Redistribution2dWorkload::fillInput(sim::Machine &machine) const
{
    for (std::uint64_t i = 0; i < fromDist.rows(); ++i) {
        for (std::uint64_t j = 0; j < fromDist.cols(); ++j) {
            int node = fromDist.ownerOf(i, j);
            machine.node(node).ram().writeWord(
                srcBase[static_cast<std::size_t>(node)] +
                    fromDist.localOffsetOf(i, j) * 8,
                i * fromDist.cols() + j + 1);
        }
    }
}

std::uint64_t
Redistribution2dWorkload::verify(sim::Machine &machine) const
{
    std::uint64_t mismatches = 0;
    for (std::uint64_t i = 0; i < toDist.rows(); ++i) {
        for (std::uint64_t j = 0; j < toDist.cols(); ++j) {
            std::uint64_t si = transposed ? j : i;
            std::uint64_t sj = transposed ? i : j;
            // Every element, the diagonal blocks included: create()
            // moves a node's local part with a p -> p flow too.
            int receiver = toDist.ownerOf(i, j);
            std::uint64_t want = si * fromDist.cols() + sj + 1;
            std::uint64_t got = machine.node(receiver).ram().readWord(
                dstBase[static_cast<std::size_t>(receiver)] +
                toDist.localOffsetOf(i, j) * 8);
            mismatches += got != want;
        }
    }
    return mismatches;
}

std::pair<core::AccessPattern, core::AccessPattern>
Redistribution2dWorkload::dominantPatterns() const
{
    const Flow *best = nullptr;
    for (const auto &flow : commOp.flows)
        if (!best || flow.words > best->words)
            best = &flow;
    if (!best)
        return {core::AccessPattern::contiguous(),
                core::AccessPattern::contiguous()};
    return {best->srcWalk.pattern, best->dstWalk.pattern};
}

} // namespace ct::rt
