#include "transfer_program.h"

#include <sstream>

#include "util/logging.h"

namespace ct::core {

std::string
resourceName(StageResource resource)
{
    switch (resource) {
      case StageResource::SenderCpu:
        return "sender-cpu";
      case StageResource::SenderEngine:
        return "sender-engine";
      case StageResource::Wire:
        return "wire";
      case StageResource::ReceiverEngine:
        return "receiver-engine";
      case StageResource::ReceiverCpu:
        return "receiver-cpu";
    }
    util::panic("resourceName: bad resource");
}

std::string
bufferName(BufferBinding buffer)
{
    switch (buffer) {
      case BufferBinding::SourceArray:
        return "source-array";
      case BufferBinding::PackBuffer:
        return "pack-buffer";
      case BufferBinding::SenderSystemBuffer:
        return "sender-system-buffer";
      case BufferBinding::NetworkPort:
        return "network-port";
      case BufferBinding::ReceiverSystemBuffer:
        return "receiver-system-buffer";
      case BufferBinding::ReceiveBuffer:
        return "receive-buffer";
      case BufferBinding::DestArray:
        return "dest-array";
    }
    util::panic("bufferName: bad buffer");
}

namespace {

bool
onNetworkPort(const ProgramStage &s)
{
    return !s.addressCompute && (s.from == BufferBinding::NetworkPort ||
                                 s.to == BufferBinding::NetworkPort);
}

/** The formula of one part of a program's sequence, a copy or the
 *  leg: its stages joined by `||`, e.g. "1S0 || Nd || 0D1". */
std::string
partFormula(std::span<const ProgramStage> part)
{
    std::string out;
    for (const ProgramStage &s : part)
        if (!s.addressCompute)
            out.append(out.empty() ? "" : " || ").append(s.transfer.name());
    return out;
}

/** The pattern a part reads memory with: its first stage's that
 *  does, or nullptr. */
const AccessPattern *
readsWith(std::span<const ProgramStage> part)
{
    for (const ProgramStage &s : part)
        if (!s.addressCompute && s.transfer.read.touchesMemory())
            return &s.transfer.read;
    return nullptr;
}

/** The pattern a part writes memory with: its last stage's that
 *  does, or nullptr. */
const AccessPattern *
writesWith(std::span<const ProgramStage> part)
{
    for (auto s = part.rbegin(); s != part.rend(); ++s)
        if (!s->addressCompute && s->transfer.write.touchesMemory())
            return &s->transfer.write;
    return nullptr;
}

} // namespace

std::optional<StageFormula>
stageFormula(std::span<const ProgramStage> stages)
{
    // The leg is [first, end); without a port stage it is empty and
    // every stage is a copy ahead of it.
    std::size_t first = stages.size(), end = stages.size();
    for (std::size_t i = 0; i < stages.size(); ++i) {
        if (!onNetworkPort(stages[i]))
            continue;
        if (first == stages.size())
            first = i;
        end = i + 1;
    }
    for (std::size_t i = 0; i < stages.size(); ++i) {
        bool inLeg = first <= i && i < end;
        if (stages[i].addressCompute ? !inLeg
                                     : inLeg && !onNetworkPort(stages[i]))
            return std::nullopt;
    }
    return StageFormula{stages.first(first),
                        stages.subspan(first, end - first),
                        stages.subspan(end)};
}

std::string
TransferProgram::format() const
{
    std::optional<StageFormula> f = stageFormula(stages);
    if (!f)
        util::panic("TransferProgram::format: stages are not copies "
                    "around one network leg");
    std::string out;
    auto append = [&](const std::string &part) {
        out.append(out.empty() ? "" : " o ").append(part);
    };
    for (const ProgramStage &s : f->before)
        append(s.transfer.name());
    if (!f->leg.empty()) {
        std::string leg = partFormula(f->leg);
        bool parens = !(f->before.empty() && f->after.empty()) &&
                      std::ranges::distance(f->legStages()) > 1;
        append(parens ? "(" + leg + ")" : leg);
    }
    for (const ProgramStage &s : f->after)
        append(s.transfer.name());
    return out;
}

std::string
TransferProgram::describe() const
{
    std::ostringstream os;
    os << styleKey << " " << x.label() << "Q" << y.label() << " on "
       << paperCaps(machine).name << ":  " << format() << "\n";
    for (const ProgramStage &s : stages) {
        os << "  " << (s.addressCompute ? "addr" : s.transfer.name());
        os << "\t" << resourceName(s.resource) << "\t"
           << bufferName(s.from) << " -> " << bufferName(s.to) << "\n";
    }
    os << "  costs: startup " << costs.senderStartup << "+"
       << costs.receiverStartup << " cycles, sync " << costs.stepSync
       << " cycles; staging copies: " << stagingBuffers;
    if (reliable)
        os << "; reliable transport";
    os << "\n";
    return os.str();
}

std::optional<std::string>
TransferProgram::validate() const
{
    if (stages.empty())
        return "program has no stages";
    std::optional<StageFormula> f = stageFormula(stages);
    if (!f)
        return "stages are not copies around one network leg";
    // Each part of the sequence, a copy or the leg as a whole, must
    // write memory with the pattern the next part reads it with,
    // wherever both touch memory: buffer handoffs through pattern `1`
    // are the canonical legal case.
    std::optional<std::string> err;
    std::span<const ProgramStage> prev;
    auto handoff = [&](std::span<const ProgramStage> next) {
        const AccessPattern *w = writesWith(prev);
        const AccessPattern *r = readsWith(next);
        if (!err && w && r && !(*w == *r))
            err = "pattern mismatch between '" + partFormula(prev) +
                  "' (writes " + w->label() + ") and '" +
                  partFormula(next) + "' (reads " + r->label() + ")";
        prev = next;
    };
    for (std::size_t i = 0; i < f->before.size(); ++i)
        handoff(f->before.subspan(i, 1));
    if (!f->leg.empty())
        handoff(f->leg);
    for (std::size_t i = 0; i < f->after.size(); ++i)
        handoff(f->after.subspan(i, 1));
    return err;
}

const ProgramStage *
TransferProgram::stageOn(StageResource resource) const
{
    for (const ProgramStage &s : stages)
        if (s.resource == resource)
            return &s;
    return nullptr;
}

double
stageLoadSigma(const ProgramStage &stage)
{
    if (stage.addressCompute)
        return 1.0; // pure contiguous index-load stream
    auto loads = [](const AccessPattern &p) {
        if (p.isContiguous())
            return 1.0;
        if (p.isIndexed())
            return 0.5; // contiguous index stream + random data lines
        return 0.0;     // strided: pipelined, latency-bound
    };
    switch (stage.transfer.op) {
      case TransferOp::LocalCopy:
      case TransferOp::LoadSend:
        return loads(stage.transfer.read);
      case TransferOp::ReceiveStore:
        // Data arrives through the port; memory loads happen only for
        // an indexed destination (the index vector, contiguous).
        return stage.transfer.write.isIndexed() ? 1.0 : 0.0;
      case TransferOp::FetchSend:
      case TransferOp::ReceiveDeposit:
      case TransferOp::NetData:
      case TransferOp::NetAddrData:
        return 0.0; // engines and the wire carry no processor loads
    }
    util::panic("stageLoadSigma: bad op");
}

TransferProgram
withReliability(TransferProgram program)
{
    program.reliable = true;
    return program;
}

} // namespace ct::core
