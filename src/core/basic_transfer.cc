#include "basic_transfer.h"

#include <algorithm>
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

std::size_t
opIndex(TransferOp op)
{
    return static_cast<std::size_t>(op);
}

/** log2 of a pattern's stride: 0 for contiguous, -inf for the fixed
 *  and indexed patterns, which have none. */
double
log2Stride(const AccessPattern &p)
{
    return std::log2(static_cast<double>(p.stride()));
}

} // namespace

void
ThroughputTable::set(const BasicTransfer &t, util::MBps mbps)
{
    if (isNetworkOp(t.op))
        util::fatal("ThroughputTable::set: use setNetwork for ", t.name());
    if (mbps <= 0.0)
        util::fatal("ThroughputTable::set: non-positive throughput for ",
                    t.name());
    std::vector<Sample> &op = samples[opIndex(t.op)];
    Sample sample{t.read, t.write, mbps, log2Stride(t.read),
                  log2Stride(t.write)};
    PatternLess less;
    auto it = std::partition_point(op.begin(), op.end(),
                                   [&](const Sample &s) {
                                       if (s.read != t.read)
                                           return less(s.read, t.read);
                                       return less(s.write, t.write);
                                   });
    if (it != op.end() && it->read == t.read && it->write == t.write)
        *it = sample;
    else
        op.insert(it, sample);
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
    std::vector<NetworkSample> &curve = network[opIndex(op)];
    NetworkSample sample{congestion,
                         std::log2(static_cast<double>(congestion)),
                         mbps};
    auto it = std::partition_point(
        curve.begin(), curve.end(),
        [&](const NetworkSample &s) { return s.congestion < congestion; });
    if (it != curve.end() && it->congestion == congestion)
        *it = sample;
    else
        curve.insert(it, sample);
}

std::optional<util::MBps>
ThroughputTable::exact(const BasicTransfer &t) const
{
    for (const Sample &s : samples[opIndex(t.op)])
        if (s.read == t.read && s.write == t.write)
            return s.mbps;
    return std::nullopt;
}

std::optional<util::MBps>
ThroughputTable::lookupStrided(TransferOp op, std::uint32_t stride,
                               bool vary_read) const
{
    // Walk the sampled (stride, throughput) curve for this op with the
    // non-varying side contiguous (or fixed for S/F/R/D ops), keeping
    // its first and last samples and the two that bracket @p stride.
    // An op's samples are ordered by read pattern, then write pattern
    // (the fixed pattern sorts first), so the curve arrives sorted by
    // stride -- re-checked cheaply.
    auto strideOf = [&](const Sample &s) {
        return (vary_read ? s.read : s.write).stride();
    };
    auto log2Of = [&](const Sample &s) {
        return vary_read ? s.log2ReadStride : s.log2WriteStride;
    };
    const Sample *first = nullptr, *last = nullptr, *below = nullptr,
                 *above = nullptr;
    for (const Sample &s : samples[opIndex(op)]) {
        const AccessPattern &varying = vary_read ? s.read : s.write;
        const AccessPattern &fixed_side = vary_read ? s.write : s.read;
        if (varying.isIndexed() || varying.isFixed())
            continue;
        if (!(fixed_side.isContiguous() || fixed_side.isFixed()))
            continue;
        if (last && strideOf(*last) >= strideOf(s))
            util::panic("lookupStrided: samples not sorted");
        if (!first)
            first = &s;
        if (strideOf(s) < stride)
            below = &s;
        else if (!above)
            above = &s;
        last = &s;
    }
    if (!first)
        return std::nullopt;

    if (stride <= strideOf(*first))
        return first->mbps;
    if (stride >= strideOf(*last)) {
        // Clamp beyond the largest sampled stride ("stride 64 applies
        // to any larger stride") -- but only when a strided sample
        // exists at all. A table with only a contiguous entry means
        // the hardware cannot do strided transfers (e.g. the Paragon
        // DMA deposit engine).
        if (strideOf(*last) < 2)
            return std::nullopt;
        return last->mbps;
    }
    // first < stride < last: below and above bracket it.
    double t = (std::log2(double(stride)) - log2Of(*below)) /
               (log2Of(*above) - log2Of(*below));
    return below->mbps + t * (above->mbps - below->mbps);
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

    // The op's samples are sorted by congestion; keep its ends and
    // the two that bracket @p congestion.
    const NetworkSample *first = nullptr, *last = nullptr,
                        *below = nullptr, *above = nullptr;
    for (const NetworkSample &s : network[opIndex(op)]) {
        if (!first)
            first = &s;
        if (s.congestion < congestion)
            below = &s;
        else if (!above)
            above = &s;
        last = &s;
    }
    if (!first)
        return std::nullopt;

    if (congestion <= first->congestion)
        return first->mbps;
    if (congestion >= last->congestion) {
        // Extrapolate: bandwidth scales inversely with congestion.
        return last->mbps * static_cast<double>(last->congestion) /
               congestion;
    }
    // Geometric interpolation matches the ~1/c falloff.
    double v0 = below->mbps, v1 = above->mbps;
    // At a sampled congestion (the machines' default is one) t below
    // is exactly 1 and pow(q, 1) is q: the same bits without the
    // logarithms.
    if (congestion == above->congestion)
        return v0 * (v1 / v0);
    double t = (std::log2(congestion) - below->log2Congestion) /
               (above->log2Congestion - below->log2Congestion);
    return v0 * std::pow(v1 / v0, t);
}

} // namespace ct::core
