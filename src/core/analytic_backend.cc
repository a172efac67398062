#include "analytic_backend.h"

#include <algorithm>
#include <vector>

#include "util/logging.h"

namespace ct::core {

namespace {

/** A processor-bound stage: throughput plus the fraction of its
 *  memory-load stream that is contiguous/cacheable (line fills). */
struct CpuStage
{
    double rate;
    double sigma;
};

/**
 * One endpoint of the pipeline: CPU stages (reciprocal-sum; they
 * share the processor) plus at most one autonomous interferer (DMA
 * fetch / deposit engine, or the NI port feed for a co-processor
 * receive). On a shared-bus machine, the fraction of CPU work doing
 * contiguous (cacheable, bandwidth-bound) loads serializes with
 * engine bus bursts (§5.1.4); strided/indexed loads are
 * latency-bound and leave slack the engine can hide in.
 */
double
endpointRate(const std::vector<CpuStage> &cpu, double engine,
             bool sharedBus)
{
    double invAll = 0.0, invContig = 0.0;
    for (const CpuStage &s : cpu) {
        invAll += 1.0 / s.rate;
        invContig += s.sigma / s.rate;
    }
    if (invAll == 0.0)
        return engine; // engine-only endpoint
    double r = 1.0 / invAll;
    if (engine > 0.0) {
        if (sharedBus) {
            double sigma = invContig / invAll;
            r = 1.0 / (invAll + sigma / engine);
        }
        r = std::min(r, engine);
    }
    return r;
}

} // namespace

AnalyticBackend::AnalyticBackend(ThroughputTable table,
                                 ExecutionProfile profile)
    : table_(std::move(table)), profile_(profile)
{
    if (profile_.clockHz <= 0.0)
        util::fatal("AnalyticBackend: profile needs a clock");
}

const AnalyticBackend &
paperBackend(MachineId id)
{
    auto build = [id] {
        ExecutionProfile profile;
        profile.clockHz = paperCaps(id).clockHz;
        return AnalyticBackend(paperTable(id), profile);
    };
    switch (id) {
      case MachineId::T3d: {
        static const AnalyticBackend backend = build();
        return backend;
      }
      case MachineId::Paragon: {
        static const AnalyticBackend backend = build();
        return backend;
      }
    }
    util::panic("paperBackend: bad id");
}

std::optional<util::MBps>
AnalyticBackend::rate(const TransferProgram &program,
                      double congestion) const
{
    std::optional<StageFormula> formula = stageFormula(program.stages);
    if (!formula || program.stages.empty())
        return std::nullopt;
    auto stageRate = [&](const ProgramStage &s) {
        if (isNetworkOp(s.transfer.op))
            return table_.lookupNetwork(s.transfer.op, congestion);
        return table_.lookup(s.transfer);
    };
    SequentialRule sequence;
    auto addCopies = [&](std::span<const ProgramStage> copies) {
        for (const ProgramStage &s : copies) {
            std::optional<util::MBps> r = stageRate(s);
            if (!r)
                return false;
            sequence.add(*r);
        }
        return true;
    };
    if (!addCopies(formula->before))
        return std::nullopt;
    if (!formula->leg.empty()) {
        ParallelRule leg;
        for (const ProgramStage &s : formula->legStages()) {
            std::optional<util::MBps> r = stageRate(s);
            if (!r)
                return std::nullopt;
            leg.add(*r);
        }
        sequence.add(leg.rate());
    }
    if (!addCopies(formula->after))
        return std::nullopt;
    return applyConstraints(sequence.rate(), program.constraints);
}

std::optional<MessageCostModel>
AnalyticBackend::costModel(const TransferProgram &program,
                           double congestion) const
{
    std::optional<util::MBps> r = rate(program, congestion);
    if (!r)
        return std::nullopt;
    return MessageCostModel(*r, program.costs.startup(),
                            program.costs.stepSync,
                            profile_.clockHz);
}

std::optional<util::MBps>
AnalyticBackend::predictRate(const TransferProgram &program,
                             double congestion) const
{
    std::vector<CpuStage> senderCpu, receiverCpu;
    double senderEngine = 0.0, receiverEngine = 0.0;
    double wire = 0.0;
    bool receiverPortFed = false;

    for (const ProgramStage &stage : program.stages) {
        // The addressCompute stream is not a throughput-table row:
        // it runs at the machine's load-only bandwidth.
        if (stage.addressCompute) {
            if (profile_.indexStreamMBps <= 0.0)
                return std::nullopt;
            senderCpu.push_back({profile_.indexStreamMBps,
                                 stageLoadSigma(stage)});
            continue;
        }
        if (stage.resource == StageResource::Wire) {
            std::optional<util::MBps> w = table_.lookupNetwork(
                stage.transfer.op, congestion);
            if (!w)
                return std::nullopt;
            wire = *w;
            continue;
        }
        std::optional<util::MBps> r = table_.lookup(stage.transfer);
        if (!r)
            return std::nullopt;
        switch (stage.resource) {
          case StageResource::SenderCpu:
            senderCpu.push_back({*r, stageLoadSigma(stage)});
            break;
          case StageResource::SenderEngine: {
            double rate = *r;
            if (stage.transfer.op == TransferOp::FetchSend &&
                profile_.dmaChunkSetupCycles > 0) {
                // The table measures one whole-block fetch; the
                // layers kick the engine per chunk, paying the setup
                // cost each time.
                double chunkBytes =
                    static_cast<double>(profile_.chunkWords) * 8.0;
                double setupSecPerMB =
                    (static_cast<double>(
                         profile_.dmaChunkSetupCycles) /
                     profile_.clockHz) /
                    (chunkBytes / 1e6);
                rate = 1.0 / (1.0 / rate + setupSecPerMB);
            }
            senderEngine = rate;
            break;
          }
          case StageResource::ReceiverEngine:
            // Deposit rates need no chunk adjustment: the table
            // already measures chunked deposits.
            receiverEngine = *r;
            break;
          case StageResource::ReceiverCpu:
            receiverCpu.push_back({*r, stageLoadSigma(stage)});
            if (stage.transfer.op == TransferOp::ReceiveStore)
                receiverPortFed = true;
            break;
          case StageResource::Wire:
            break; // handled above
        }
    }

    if (wire <= 0.0)
        return std::nullopt;

    // A port-fed co-processor receive has no engine of its own, but
    // the NI feed bursts on the bus just like one.
    double receiverInterferer =
        receiverEngine > 0.0 ? receiverEngine
                             : (receiverPortFed ? wire : 0.0);

    double sender =
        endpointRate(senderCpu, senderEngine, profile_.sharedBus);
    double receiver = endpointRate(receiverCpu, receiverInterferer,
                                   profile_.sharedBus);
    return std::min({sender, receiver, wire});
}

std::optional<util::MBps>
AnalyticBackend::predictThroughputAt(const TransferProgram &program,
                                     util::Bytes bytes,
                                     double congestion) const
{
    std::optional<util::MBps> r = predictRate(program, congestion);
    if (!r)
        return std::nullopt;
    MessageCostModel model(*r, program.costs.startup(),
                           program.costs.stepSync, profile_.clockHz);
    return model.throughputAt(bytes);
}

std::optional<util::MBps>
AnalyticBackend::faultedRate(const TransferProgram &program,
                             const FaultEnvironment &env) const
{
    std::optional<util::MBps> base =
        predictRate(program, env.congestion);
    if (!base)
        return std::nullopt;
    // Past ~0.95 per-packet loss the retransmission series diverges
    // and any comparison is academic; clamp so the query stays total.
    double p = std::clamp(env.packetLoss, 0.0, 0.95);
    if (p <= 0.0)
        return base;

    std::optional<util::MBps> wire;
    for (const ProgramStage &stage : program.stages)
        if (stage.resource == StageResource::Wire && !wire)
            wire = table_.lookupNetwork(stage.transfer.op,
                                        env.congestion);
    if (!wire || *wire <= 0.0)
        return std::nullopt;

    // Expected transmissions per delivered packet: 1/(1-p). The
    // p/(1-p) extra copies serialize on the wire stage at the
    // program's own framing rate.
    double lossesPerPacket = p / (1.0 - p);
    double secPerMB = 1.0 / *base + lossesPerPacket / *wire;

    // Each lost transmission is detected by a timer, stalling the
    // channel for about one retransmit timeout. Charged per packet of
    // env.packetWords payload words; identical for every style, so it
    // shifts the whole surface without moving the break-even point.
    if (env.retransmitTimeout > 0 && env.packetWords > 0) {
        double packetMB =
            static_cast<double>(env.packetWords) * 8.0 / 1e6;
        double stallSec = static_cast<double>(env.retransmitTimeout) /
                          profile_.clockHz;
        secPerMB += lossesPerPacket * stallSec / packetMB;
    }
    return 1.0 / secPerMB;
}

namespace {

/**
 * Bisect f over [lo, hi] for a sign change of f(hi)-f(lo) polarity;
 * nullopt when both ends agree in sign (no crossing) or either end
 * is unratable.
 */
template <typename F>
std::optional<double>
bisectCrossing(F f, double lo, double hi)
{
    std::optional<double> flo = f(lo), fhi = f(hi);
    if (!flo || !fhi)
        return std::nullopt;
    if ((*flo > 0.0) == (*fhi > 0.0))
        return std::nullopt;
    for (int iter = 0; iter < 64; ++iter) {
        double mid = 0.5 * (lo + hi);
        std::optional<double> fmid = f(mid);
        if (!fmid)
            return std::nullopt;
        if ((*fmid > 0.0) == (*flo > 0.0)) {
            lo = mid;
            flo = fmid;
        } else {
            hi = mid;
        }
    }
    return 0.5 * (lo + hi);
}

} // namespace

std::optional<double>
AnalyticBackend::breakEvenLoss(const TransferProgram &a,
                               const TransferProgram &b,
                               const FaultEnvironment &env) const
{
    auto diff = [&](double p) -> std::optional<double> {
        FaultEnvironment at = env;
        at.packetLoss = p;
        std::optional<util::MBps> ra = faultedRate(a, at);
        std::optional<util::MBps> rb = faultedRate(b, at);
        if (!ra || !rb)
            return std::nullopt;
        return *ra - *rb;
    };
    return bisectCrossing(diff, 0.0, 0.95);
}

} // namespace ct::core
