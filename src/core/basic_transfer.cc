#include "basic_transfer.h"

#include <algorithm>
#include <climits>
#include <cmath>

#include "util/logging.h"

namespace ct::core {

bool
isNetworkOp(TransferOp op)
{
    return op == TransferOp::NetData || op == TransferOp::NetAddrData;
}

std::string
opName(TransferOp op)
{
    switch (op) {
      case TransferOp::LocalCopy:
        return "C";
      case TransferOp::LoadSend:
        return "S";
      case TransferOp::FetchSend:
        return "F";
      case TransferOp::ReceiveStore:
        return "R";
      case TransferOp::ReceiveDeposit:
        return "D";
      case TransferOp::NetData:
        return "Nd";
      case TransferOp::NetAddrData:
        return "Nadp";
    }
    util::panic("opName: bad op");
}

std::string
BasicTransfer::name() const
{
    if (isNetworkOp(op))
        return opName(op);
    return read.label() + opName(op) + write.label();
}

BasicTransfer
localCopy(AccessPattern read, AccessPattern write)
{
    if (read.isFixed() || write.isFixed())
        util::fatal("localCopy: fixed pattern not allowed in xCy");
    return {TransferOp::LocalCopy, read, write};
}

BasicTransfer
loadSend(AccessPattern read)
{
    if (read.isFixed())
        util::fatal("loadSend: read pattern must touch memory");
    return {TransferOp::LoadSend, read, AccessPattern::fixed()};
}

BasicTransfer
fetchSend(AccessPattern read)
{
    if (read.isFixed())
        util::fatal("fetchSend: read pattern must touch memory");
    return {TransferOp::FetchSend, read, AccessPattern::fixed()};
}

BasicTransfer
receiveStore(AccessPattern write)
{
    if (write.isFixed())
        util::fatal("receiveStore: write pattern must touch memory");
    return {TransferOp::ReceiveStore, AccessPattern::fixed(), write};
}

BasicTransfer
receiveDeposit(AccessPattern write)
{
    if (write.isFixed())
        util::fatal("receiveDeposit: write pattern must touch memory");
    return {TransferOp::ReceiveDeposit, AccessPattern::fixed(), write};
}

BasicTransfer
netData()
{
    return {TransferOp::NetData, AccessPattern::fixed(),
            AccessPattern::fixed()};
}

BasicTransfer
netAddrData()
{
    return {TransferOp::NetAddrData, AccessPattern::fixed(),
            AccessPattern::fixed()};
}

namespace {

/** First sample of sorted @p samples whose key is not below @p key. */
template <typename Samples, typename K>
auto
firstNotBelow(Samples &samples, const K &key)
{
    return std::lower_bound(
        samples.begin(), samples.end(), key,
        [](const auto &sample, const K &k) { return sample.first < k; });
}

/** Record @p value under @p key in sorted @p samples, replacing an
 *  earlier sample of the same key. */
template <typename Samples, typename K>
void
insertSorted(Samples &samples, const K &key, util::MBps value)
{
    auto it = firstNotBelow(samples, key);
    if (it != samples.end() && it->first == key)
        it->second = value;
    else
        samples.insert(it, {key, value});
}

} // namespace

bool
ThroughputTable::Key::operator<(const Key &other) const
{
    PatternLess less;
    auto rank = [](const Key &k) {
        return static_cast<int>(k.op);
    };
    if (rank(*this) != rank(other))
        return rank(*this) < rank(other);
    if (read != other.read)
        return less(read, other.read);
    return less(write, other.write);
}

void
ThroughputTable::set(const BasicTransfer &t, util::MBps mbps)
{
    if (isNetworkOp(t.op))
        util::fatal("ThroughputTable::set: use setNetwork for ", t.name());
    if (mbps <= 0.0)
        util::fatal("ThroughputTable::set: non-positive throughput for ",
                    t.name());
    insertSorted(entries, Key{t.op, t.read, t.write}, mbps);
}

void
ThroughputTable::setNetwork(TransferOp op, int congestion,
                            util::MBps mbps)
{
    if (!isNetworkOp(op))
        util::fatal("ThroughputTable::setNetwork: not a network op");
    if (congestion < 1)
        util::fatal("ThroughputTable::setNetwork: congestion < 1");
    if (mbps <= 0.0)
        util::fatal("ThroughputTable::setNetwork: non-positive rate");
    insertSorted(network, std::pair{static_cast<int>(op), congestion},
                 mbps);
}

std::optional<util::MBps>
ThroughputTable::exact(const BasicTransfer &t) const
{
    Key key{t.op, t.read, t.write};
    auto it = firstNotBelow(entries, key);
    if (it == entries.end() || !(it->first == key))
        return std::nullopt;
    return it->second;
}

std::optional<util::MBps>
ThroughputTable::lookupStrided(TransferOp op, std::uint32_t stride,
                               bool vary_read) const
{
    // Walk the sampled (stride, throughput) curve for this op with the
    // non-varying side contiguous (or fixed for S/F/R/D ops), keeping
    // its first and last samples and the two that bracket @p stride.
    // The sorted samples keep one op's keys together (the fixed
    // pattern sorts first), ordered by the varying pattern, so the
    // curve arrives sorted by stride -- re-checked cheaply.
    using Sample = std::pair<std::uint32_t, util::MBps>;
    std::optional<Sample> first, last, below, above;
    const AccessPattern lowest = AccessPattern::fixed();
    for (auto it = firstNotBelow(entries, Key{op, lowest, lowest});
         it != entries.end() && it->first.op == op; ++it) {
        const Key &key = it->first;
        const AccessPattern &varying = vary_read ? key.read : key.write;
        const AccessPattern &fixed_side =
            vary_read ? key.write : key.read;
        if (varying.isIndexed() || varying.isFixed())
            continue;
        if (!(fixed_side.isContiguous() || fixed_side.isFixed()))
            continue;
        Sample s{varying.stride(), it->second};
        if (last && last->first >= s.first)
            util::panic("lookupStrided: samples not sorted");
        if (!first)
            first = s;
        if (s.first < stride)
            below = s;
        else if (!above)
            above = s;
        last = s;
    }
    if (!first)
        return std::nullopt;

    if (stride <= first->first)
        return first->second;
    if (stride >= last->first) {
        // Clamp beyond the largest sampled stride ("stride 64 applies
        // to any larger stride") -- but only when a strided sample
        // exists at all. A table with only a contiguous entry means
        // the hardware cannot do strided transfers (e.g. the Paragon
        // DMA deposit engine).
        if (last->first < 2)
            return std::nullopt;
        return last->second;
    }
    // first < stride < last: below and above bracket it.
    auto [s0, v0] = *below;
    auto [s1, v1] = *above;
    double t = (std::log2(double(stride)) - std::log2(double(s0))) /
               (std::log2(double(s1)) - std::log2(double(s0)));
    return v0 + t * (v1 - v0);
}

std::optional<util::MBps>
ThroughputTable::lookup(const BasicTransfer &t) const
{
    if (isNetworkOp(t.op))
        util::fatal("ThroughputTable::lookup: use lookupNetwork for ",
                    t.name());

    if (auto hit = exact(t))
        return hit;

    // Block-strided patterns (n.b): within a block, b-1 of every b
    // words behave like contiguous accesses and one word pays the
    // strided block-start cost (paper §2.2's "blocks of data words").
    auto deblock = [&](const AccessPattern &p) {
        return p.isStrided() && p.block() > 1;
    };
    if (deblock(t.read) || deblock(t.write)) {
        auto flatten = [&](const AccessPattern &p, bool strided_form) {
            if (!deblock(p))
                return p;
            return strided_form ? AccessPattern::strided(p.stride())
                                : AccessPattern::contiguous();
        };
        double blocks = static_cast<double>(
            std::max(deblock(t.read) ? t.read.block() : 1,
                     deblock(t.write) ? t.write.block() : 1));
        BasicTransfer contig_form{t.op, flatten(t.read, false),
                                  flatten(t.write, false)};
        BasicTransfer strided_form{t.op, flatten(t.read, true),
                                   flatten(t.write, true)};
        auto contig_rate = lookup(contig_form);
        auto strided_rate = lookup(strided_form);
        if (contig_rate && strided_rate) {
            double inv = (blocks - 1.0) / blocks / *contig_rate +
                         1.0 / blocks / *strided_rate;
            return 1.0 / inv;
        }
        return std::optional<util::MBps>();
    }

    // Strided interpolation when exactly one side varies.
    auto one_sided = [&](bool vary_read) -> std::optional<util::MBps> {
        const AccessPattern &varying = vary_read ? t.read : t.write;
        const AccessPattern &fixed_side = vary_read ? t.write : t.read;
        if (!(varying.isStrided() || varying.isContiguous()))
            return std::nullopt;
        if (!(fixed_side.isContiguous() || fixed_side.isFixed()))
            return std::nullopt;
        return lookupStrided(t.op, varying.stride(), vary_read);
    };

    switch (t.op) {
      case TransferOp::LoadSend:
      case TransferOp::FetchSend:
        if (auto v = one_sided(true))
            return v;
        break;
      case TransferOp::ReceiveStore:
      case TransferOp::ReceiveDeposit:
        if (auto v = one_sided(false))
            return v;
        break;
      case TransferOp::LocalCopy: {
        if (t.write.isContiguous()) {
            if (auto v = one_sided(true))
                return v;
        }
        if (t.read.isContiguous()) {
            if (auto v = one_sided(false))
                return v;
        }
        // General xCy with both sides non-contiguous: combine the
        // measured one-sided costs. Each element pays the load cost
        // of xC1 plus the store cost of 1Cy; the shared contiguous
        // half is counted once. (Guarding on both sides avoids
        // recursing into this same lookup.)
        if (t.read.isContiguous() || t.write.isContiguous())
            break;
        auto load_side =
            lookup(localCopy(t.read, AccessPattern::contiguous()));
        auto store_side =
            lookup(localCopy(AccessPattern::contiguous(), t.write));
        auto base = lookup(localCopy(AccessPattern::contiguous(),
                                     AccessPattern::contiguous()));
        if (load_side && store_side && base) {
            double inv = 1.0 / *load_side + 1.0 / *store_side -
                         1.0 / *base;
            if (inv > 0.0)
                return 1.0 / inv;
        }
        break;
      }
      default:
        break;
    }
    return std::nullopt;
}

std::optional<util::MBps>
ThroughputTable::lookupNetwork(TransferOp op, double congestion) const
{
    if (!isNetworkOp(op))
        util::fatal("lookupNetwork: not a network op");
    if (congestion < 1.0)
        util::fatal("lookupNetwork: congestion < 1");

    // One op's samples are one run of the vector, sorted by
    // congestion; keep its ends and the two that bracket @p congestion.
    using Sample = std::pair<int, util::MBps>;
    std::optional<Sample> first, last, below, above;
    int key = static_cast<int>(op);
    for (auto it = firstNotBelow(network, std::pair{key, INT_MIN});
         it != network.end() && it->first.first == key; ++it) {
        Sample s{it->first.second, it->second};
        if (!first)
            first = s;
        if (s.first < congestion)
            below = s;
        else if (!above)
            above = s;
        last = s;
    }
    if (!first)
        return std::nullopt;

    if (congestion <= first->first)
        return first->second;
    if (congestion >= last->first) {
        // Extrapolate: bandwidth scales inversely with congestion.
        auto [c, v] = *last;
        return v * static_cast<double>(c) / congestion;
    }
    // Geometric interpolation matches the ~1/c falloff.
    auto [c0, v0] = *below;
    auto [c1, v1] = *above;
    // At a sampled congestion (the machines' default is one) t below
    // is exactly 1 and pow(q, 1) is q: the same bits without the
    // logarithms.
    if (congestion == c1)
        return v0 * (v1 / v0);
    double t = (std::log2(congestion) - std::log2(double(c0))) /
               (std::log2(double(c1)) - std::log2(double(c0)));
    return v0 * std::pow(v1 / v0, t);
}

} // namespace ct::core
