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

std::string
TransferProgram::format() const
{
    if (!expr)
        util::panic("TransferProgram::format: program has no expr");
    return expr->format();
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
    if (!expr)
        return "program has no algebra view";
    return expr->validate();
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
