#include "style_registry.h"

#include <array>
#include <mutex>
#include <string_view>
#include <utility>

#include "util/logging.h"

namespace ct::core {

namespace {

using P = AccessPattern;
using R = StageResource;
using B = BufferBinding;

/** The contiguous network leg, sender feed || network || deposit,
 *  feeding from @p feedBuffer and landing in @p landBuffer. */
std::array<ProgramStage, 3>
contiguousLegStages(const MachineCaps &caps, B feedBuffer, B landBuffer)
{
    ProgramStage feed =
        caps.hasFetchSend
            ? ProgramStage{fetchSend(P::contiguous()), R::SenderEngine,
                           feedBuffer, B::NetworkPort}
            : ProgramStage{loadSend(P::contiguous()), R::SenderCpu,
                           feedBuffer, B::NetworkPort};
    return {feed,
            {netData(), R::Wire, B::NetworkPort, B::NetworkPort},
            {receiveDeposit(P::contiguous()), R::ReceiverEngine,
             B::NetworkPort, landBuffer}};
}

/**
 * Buffer packing stores every word twice on each node (pack at the
 * sender, unpack at the receiver); with all nodes sending and
 * receiving simultaneously the aggregate store traffic must fit in
 * the store-only memory bandwidth: 2 x |xQy| <= |0C1|.
 */
ResourceConstraint
packingConstraint(const MachineCaps &caps)
{
    return {"2x store traffic <= |0C1|", 2.0, caps.storeOnlyBandwidth};
}

TransferProgram
baseProgram(Style style, std::string_view key, MachineId id,
            AccessPattern x, AccessPattern y,
            const SoftwareCosts &costs)
{
    TransferProgram p;
    p.style = style;
    p.styleKey = key;
    p.machine = id;
    p.x = x;
    p.y = y;
    p.costs = costs;
    return p;
}

// The builders below size each program's stage list once and keep
// the constraint label a literal: a plan miss builds every style.

std::optional<TransferProgram>
buildBufferPacking(MachineId id, AccessPattern x, AccessPattern y,
                   const SoftwareCosts &costs)
{
    const MachineCaps &caps = paperCaps(id);
    TransferProgram p =
        baseProgram(Style::BufferPacking, "buffer-packing", id, x, y,
                    costs);
    // xQy = xC1 o (feed || Nd || 0D1) o 1Cy ("gather copy,
    // contiguous block transfer, scatter copy"). The copies are kept
    // even for contiguous x and y: the library interface forces them
    // (§3.4).
    auto leg = contiguousLegStages(caps, B::PackBuffer, B::ReceiveBuffer);
    p.stages = {{localCopy(x, P::contiguous()), R::SenderCpu,
                 B::SourceArray, B::PackBuffer},
                leg[0],
                leg[1],
                leg[2],
                {localCopy(P::contiguous(), y), R::ReceiverCpu,
                 B::ReceiveBuffer, B::DestArray}};
    p.constraints = {packingConstraint(caps)};
    p.stagingBuffers = 1;
    return p;
}

std::optional<TransferProgram>
buildPvm(MachineId id, AccessPattern x, AccessPattern y,
         const SoftwareCosts &costs)
{
    const MachineCaps &caps = paperCaps(id);
    TransferProgram p =
        baseProgram(Style::Pvm, "pvm", id, x, y, costs);
    // Buffer packing plus one extra copy into a system buffer on
    // each side (§5.1.1); the per-message constant overhead is a
    // latency effect outside the throughput model.
    auto leg = contiguousLegStages(caps, B::SenderSystemBuffer,
                                   B::ReceiverSystemBuffer);
    p.stages = {{localCopy(x, P::contiguous()), R::SenderCpu,
                 B::SourceArray, B::PackBuffer},
                {localCopy(P::contiguous(), P::contiguous()),
                 R::SenderCpu, B::PackBuffer, B::SenderSystemBuffer},
                leg[0],
                leg[1],
                leg[2],
                {localCopy(P::contiguous(), P::contiguous()),
                 R::ReceiverCpu, B::ReceiverSystemBuffer,
                 B::ReceiveBuffer},
                {localCopy(P::contiguous(), y), R::ReceiverCpu,
                 B::ReceiveBuffer, B::DestArray}};
    p.constraints = {packingConstraint(caps)};
    p.stagingBuffers = 2;
    return p;
}

std::optional<TransferProgram>
buildChained(MachineId id, AccessPattern x, AccessPattern y,
             const SoftwareCosts &costs)
{
    const MachineCaps &caps = paperCaps(id);
    TransferProgram p =
        baseProgram(Style::Chained, "chained", id, x, y, costs);
    bool contiguous = x.isContiguous() && y.isContiguous();
    if (contiguous) {
        // Direct contiguous chained transfer:
        // 1Q'1 = 1S0 || Nd || (0D1 or 0R1).
        if (caps.depositContiguous) {
            p.stages = {{loadSend(P::contiguous()), R::SenderCpu,
                         B::SourceArray, B::NetworkPort},
                        {netData(), R::Wire, B::NetworkPort,
                         B::NetworkPort},
                        {receiveDeposit(P::contiguous()),
                         R::ReceiverEngine, B::NetworkPort,
                         B::DestArray}};
        } else if (caps.coProcReceive) {
            p.stages = {{loadSend(P::contiguous()), R::SenderCpu,
                         B::SourceArray, B::NetworkPort},
                        {netData(), R::Wire, B::NetworkPort,
                         B::NetworkPort},
                        {receiveStore(P::contiguous()),
                         R::ReceiverCpu, B::NetworkPort,
                         B::DestArray}};
        } else {
            return std::nullopt;
        }
        return p;
    }
    // Remote stores chained through the deposit path (address-data
    // pairs): xQ'y = xS0 || Nadp || (0Dy or 0Ry).
    bool engineRecv = false;
    if (caps.depositAnyPattern)
        engineRecv = true;
    else if (caps.coProcReceive)
        engineRecv = false;
    else if (y.isContiguous() && caps.depositContiguous)
        engineRecv = true;
    else
        return std::nullopt;
    p.stages.reserve(4);
    p.stages.push_back({loadSend(x), R::SenderCpu, B::SourceArray,
                        B::NetworkPort});
    if (y.isIndexed()) {
        // The sender walks the destination index vector to frame
        // address-data pairs: a contiguous index-load stream.
        ProgramStage addr{loadSend(P::contiguous()), R::SenderCpu,
                          B::SourceArray, B::NetworkPort};
        addr.addressCompute = true;
        p.stages.push_back(addr);
    }
    p.stages.push_back(
        {netAddrData(), R::Wire, B::NetworkPort, B::NetworkPort});
    if (engineRecv)
        p.stages.push_back({receiveDeposit(y), R::ReceiverEngine,
                            B::NetworkPort, B::DestArray});
    else
        p.stages.push_back({receiveStore(y), R::ReceiverCpu,
                            B::NetworkPort, B::DestArray});
    return p;
}

std::optional<TransferProgram>
buildDmaDirect(MachineId id, AccessPattern x, AccessPattern y,
               const SoftwareCosts &costs)
{
    const MachineCaps &caps = paperCaps(id);
    if (!(x.isContiguous() && y.isContiguous()))
        return std::nullopt;
    if (!(caps.hasFetchSend && caps.depositContiguous))
        return std::nullopt;
    TransferProgram p =
        baseProgram(Style::DmaDirect, "dma-direct", id, x, y, costs);
    // A DMA-fed contiguous block transfer.
    p.stages = {{fetchSend(P::contiguous()), R::SenderEngine,
                 B::SourceArray, B::NetworkPort},
                {netData(), R::Wire, B::NetworkPort, B::NetworkPort},
                {receiveDeposit(P::contiguous()), R::ReceiverEngine,
                 B::NetworkPort, B::DestArray}};
    return p;
}

/** Builders in the planner's preference order (fastest-first when
 *  estimates tie; matches the legacy hardcoded list). */
std::vector<StyleInfo>
builtinStyles()
{
    std::vector<StyleInfo> reg;
    {
        StyleInfo info;
        info.style = Style::DmaDirect;
        info.key = "dma-direct";
        info.costs = {1000, 500, 3000};
        SoftwareCosts costs = info.costs;
        info.build = [costs](MachineId id, AccessPattern x,
                             AccessPattern y) {
            return buildDmaDirect(id, x, y, costs);
        };
        reg.push_back(std::move(info));
    }
    {
        StyleInfo info;
        info.style = Style::Chained;
        info.key = "chained";
        info.costs = {1500, 0, 8000};
        SoftwareCosts costs = info.costs;
        info.build = [costs](MachineId id, AccessPattern x,
                             AccessPattern y) {
            return buildChained(id, x, y, costs);
        };
        reg.push_back(std::move(info));
    }
    {
        StyleInfo info;
        info.style = Style::BufferPacking;
        info.key = "buffer-packing";
        info.costs = {1000, 500, 3000};
        SoftwareCosts costs = info.costs;
        info.build = [costs](MachineId id, AccessPattern x,
                             AccessPattern y) {
            return buildBufferPacking(id, x, y, costs);
        };
        reg.push_back(std::move(info));
    }
    {
        StyleInfo info;
        info.style = Style::Pvm;
        info.key = "pvm";
        info.costs = {4000, 2000, 3000};
        SoftwareCosts costs = info.costs;
        info.build = [costs](MachineId id, AccessPattern x,
                             AccessPattern y) {
            return buildPvm(id, x, y, costs);
        };
        reg.push_back(std::move(info));
    }
    return reg;
}

std::vector<StyleInfo> &
registryStorage()
{
    static std::vector<StyleInfo> reg = builtinStyles();
    return reg;
}

/**
 * Serializes concurrent registerStyle() calls. Readers are lock-free
 * on purpose: they hand out references into the vector, so the
 * registry contract (header) requires all registration to
 * happen-before any concurrent read -- in practice, before the first
 * sweep::Farm launch. The mutex closes the writer/writer race the
 * shared-static audit flagged (two farm-setup paths registering
 * styles at once); it cannot (and does not claim to) make
 * register-during-sweep safe.
 */
std::mutex &
registryMutex()
{
    static std::mutex mu;
    return mu;
}

} // namespace

void
registerStyle(StyleInfo info)
{
    if (info.key.empty())
        util::fatal("registerStyle: style needs a key");
    if (!info.build)
        util::fatal("registerStyle: style needs a builder");
    std::lock_guard<std::mutex> lock(registryMutex());
    std::vector<StyleInfo> &reg = registryStorage();
    for (StyleInfo &existing : reg) {
        if (existing.key == info.key) {
            existing = std::move(info);
            return;
        }
    }
    reg.push_back(std::move(info));
}

const std::vector<StyleInfo> &
styleRegistry()
{
    return registryStorage();
}

const StyleInfo *
findStyle(Style style)
{
    for (const StyleInfo &info : registryStorage())
        if (info.style == style)
            return &info;
    return nullptr;
}

const StyleInfo *
findStyle(const std::string &key)
{
    for (const StyleInfo &info : registryStorage())
        if (info.key == key)
            return &info;
    return nullptr;
}

std::optional<TransferProgram>
buildProgram(const StyleInfo &info, MachineId id, AccessPattern x,
             AccessPattern y)
{
    if (x.isFixed() || y.isFixed())
        util::fatal("buildProgram: xQy patterns must touch memory");
    std::optional<TransferProgram> program = info.build(id, x, y);
    if (program)
        if (std::optional<std::string> err = program->validate())
            util::fatal("buildProgram: style '", info.key, "' built ",
                        x.label(), "Q", y.label(), " ill-formed: ",
                        *err);
    return program;
}

std::optional<TransferProgram>
buildProgram(MachineId id, Style style, AccessPattern x,
             AccessPattern y)
{
    const StyleInfo *info = findStyle(style);
    if (!info)
        return std::nullopt;
    return buildProgram(*info, id, x, y);
}

std::optional<TransferProgram>
buildProgram(MachineId id, const std::string &key, AccessPattern x,
             AccessPattern y)
{
    const StyleInfo *info = findStyle(key);
    if (!info)
        return std::nullopt;
    return buildProgram(*info, id, x, y);
}

std::string
styleName(Style style)
{
    if (style == Style::Custom)
        return "custom";
    if (const StyleInfo *info = findStyle(style))
        return info->key;
    util::panic("styleName: style not registered");
}

} // namespace ct::core
