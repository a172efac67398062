#include "distribution.h"

#include <algorithm>
#include <ostream>

#include "util/logging.h"

namespace ct::core {

Distribution::Distribution(DistKind kind, std::uint64_t n, int p,
                           std::uint64_t k)
    : kindValue(kind), n(n), p(p), k(k)
{
    if (n == 0)
        util::fatal("Distribution: empty array");
    if (p <= 0)
        util::fatal("Distribution: need at least one node");
    if (k == 0)
        util::fatal("Distribution: zero block size");
}

Distribution
Distribution::block(std::uint64_t n, int p)
{
    std::uint64_t chunk =
        (n + static_cast<std::uint64_t>(p) - 1) /
        static_cast<std::uint64_t>(p);
    return {DistKind::Block, n, p, chunk};
}

Distribution
Distribution::cyclic(std::uint64_t n, int p)
{
    return {DistKind::Cyclic, n, p, 1};
}

Distribution
Distribution::blockCyclic(std::uint64_t n, int p, std::uint64_t k)
{
    return {DistKind::BlockCyclic, n, p, k};
}

int
Distribution::ownerOf(std::uint64_t i) const
{
    if (i >= n)
        util::fatal("Distribution::ownerOf: index out of range");
    std::uint64_t block_idx = i / k;
    switch (kindValue) {
      case DistKind::Block:
        return static_cast<int>(block_idx);
      case DistKind::Cyclic:
      case DistKind::BlockCyclic:
        return static_cast<int>(block_idx %
                                static_cast<std::uint64_t>(p));
    }
    util::panic("Distribution::ownerOf: bad kind");
}

std::uint64_t
Distribution::localIndexOf(std::uint64_t i) const
{
    std::uint64_t block_idx = i / k;
    std::uint64_t within = i % k;
    switch (kindValue) {
      case DistKind::Block:
        return within;
      case DistKind::Cyclic:
      case DistKind::BlockCyclic:
        return (block_idx / static_cast<std::uint64_t>(p)) * k + within;
    }
    util::panic("Distribution::localIndexOf: bad kind");
}

std::uint64_t
Distribution::localCount(int node) const
{
    if (node < 0 || node >= p)
        util::fatal("Distribution::localCount: bad node");
    std::uint64_t count = 0;
    switch (kindValue) {
      case DistKind::Block: {
        auto nn = static_cast<std::uint64_t>(node);
        std::uint64_t lo = std::min(n, nn * k);
        std::uint64_t hi = std::min(n, (nn + 1) * k);
        count = hi - lo;
        break;
      }
      case DistKind::Cyclic:
      case DistKind::BlockCyclic: {
        std::uint64_t blocks = (n + k - 1) / k;
        auto nn = static_cast<std::uint64_t>(node);
        auto pp = static_cast<std::uint64_t>(p);
        std::uint64_t full = blocks / pp;
        count = full * k;
        if (blocks % pp > nn)
            count += k;
        // The very last block may be partial.
        std::uint64_t last_block = blocks - 1;
        if (last_block % pp == nn && n % k != 0)
            count -= k - n % k;
        break;
      }
    }
    return count;
}

std::uint64_t
Distribution::globalIndexOf(int node, std::uint64_t li) const
{
    auto nn = static_cast<std::uint64_t>(node);
    auto pp = static_cast<std::uint64_t>(p);
    std::uint64_t global;
    switch (kindValue) {
      case DistKind::Block:
        global = nn * k + li;
        break;
      case DistKind::Cyclic:
      case DistKind::BlockCyclic: {
        std::uint64_t block_round = li / k;
        std::uint64_t within = li % k;
        global = (block_round * pp + nn) * k + within;
        break;
      }
      default:
        util::panic("Distribution::globalIndexOf: bad kind");
    }
    if (global >= n)
        util::fatal("Distribution::globalIndexOf: local index out of "
                    "range");
    return global;
}

std::string
Distribution::name() const
{
    switch (kindValue) {
      case DistKind::Block:
        return "BLOCK";
      case DistKind::Cyclic:
        return "CYCLIC";
      case DistKind::BlockCyclic:
        return "BLOCK-CYCLIC(" + std::to_string(k) + ")";
    }
    util::panic("Distribution::name: bad kind");
}

void
PrintTo(const Distribution &d, std::ostream *os)
{
    *os << d.name() << " n=" << d.elements() << " p=" << d.nodes();
}

AccessPattern
classifyIndices(const std::vector<std::uint64_t> &indices)
{
    if (indices.empty())
        return AccessPattern::contiguous();
    for (std::size_t i = 1; i < indices.size(); ++i)
        if (indices[i] <= indices[i - 1])
            return AccessPattern::indexed();

    // Contiguous?
    bool contiguous = true;
    for (std::size_t i = 1; i < indices.size(); ++i)
        contiguous &= indices[i] == indices[i - 1] + 1;
    if (contiguous)
        return AccessPattern::contiguous();

    // Block-strided: runs of `block` consecutive indices whose run
    // starts are a constant stride apart.
    std::size_t block = 1;
    while (block < indices.size() &&
           indices[block] == indices[block - 1] + 1)
        ++block;
    if (indices.size() % block != 0)
        return AccessPattern::indexed();
    std::uint64_t stride = 0;
    for (std::size_t run = 0; run * block < indices.size(); ++run) {
        std::size_t base = run * block;
        for (std::size_t j = 1; j < block; ++j)
            if (indices[base + j] != indices[base] + j)
                return AccessPattern::indexed();
        if (run > 0) {
            std::uint64_t gap =
                indices[base] - indices[base - block];
            if (stride == 0)
                stride = gap;
            else if (gap != stride)
                return AccessPattern::indexed();
        }
    }
    if (stride == 0 || stride > UINT32_MAX || block > stride)
        return AccessPattern::indexed();
    return AccessPattern::strided(static_cast<std::uint32_t>(stride),
                                  static_cast<std::uint32_t>(block));
}

std::vector<std::uint64_t>
redistributionIndices(const Distribution &from, const Distribution &to,
                      int sender, int receiver)
{
    if (from.elements() != to.elements())
        util::fatal("redistributionIndices: size mismatch");
    std::vector<std::uint64_t> moved;
    // Walk the receiver's storage in order; keep the elements the
    // sender currently owns.
    for (std::uint64_t li = 0; li < to.localCount(receiver); ++li) {
        std::uint64_t g = to.globalIndexOf(receiver, li);
        if (from.ownerOf(g) == sender)
            moved.push_back(g);
    }
    return moved;
}

} // namespace ct::core
