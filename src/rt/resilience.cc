#include "resilience.h"

#include <algorithm>
#include <bit>
#include <numeric>

#include "core/machine_params.h"
#include "core/style_registry.h"
#include "obs/trace.h"
#include "rt/sim_backend.h"
#include "util/hash.h"
#include "util/logging.h"

namespace ct::rt {

const char *
policyActionName(PolicyAction action)
{
    switch (action) {
      case PolicyAction::Hold:
        return "hold";
      case PolicyAction::SwitchStyle:
        return "switch-style";
      case PolicyAction::TightenTransport:
        return "tighten-transport";
      case PolicyAction::RelaxTransport:
        return "relax-transport";
      case PolicyAction::ForceCheckpoint:
        return "force-checkpoint";
    }
    util::panic("policyActionName: bad action");
}

namespace {

core::TransferProgram
programOrDie(const sim::MachineConfig &config, const std::string &key,
             core::AccessPattern x, core::AccessPattern y)
{
    auto program = core::buildProgram(config.id, key, x, y);
    if (!program)
        util::fatal("ResilienceController: style '", key,
                    "' cannot implement ", x.label(), "Q", y.label(),
                    " on ", config.name);
    return *std::move(program);
}

} // namespace

ResilienceController::ResilienceController(
    const sim::MachineConfig &config, core::AccessPattern x,
    core::AccessPattern y, ResilienceOptions options)
    : opts(std::move(options)),
      analytic(core::paperTable(config.id),
               executionProfileFor(config)),
      current(programOrDie(config, opts.initialStyle, x, y)),
      alternate(programOrDie(config, opts.alternateStyle, x, y)),
      currentKey(opts.initialStyle),
      alternateKey(opts.alternateStyle),
      transportOpts(opts.transport)
{
    if (opts.hysteresis < 0.0)
        util::fatal("ResilienceController: hysteresis must be >= 0, "
                    "got ",
                    opts.hysteresis);
    if (opts.cooldownRounds < 0)
        util::fatal("ResilienceController: cooldownRounds must be "
                    ">= 0, got ",
                    opts.cooldownRounds);
    if (opts.minRetransmitTimeout == 0 ||
        opts.minRetransmitTimeout > opts.maxRetransmitTimeout)
        util::fatal("ResilienceController: need 0 < "
                    "minRetransmitTimeout <= maxRetransmitTimeout");
    if (opts.ewma <= 0.0 || opts.ewma > 1.0)
        util::fatal("ResilienceController: ewma weight must be in "
                    "(0, 1], got ",
                    opts.ewma);
    if (opts.rttFloor <= 0.0)
        util::fatal("ResilienceController: rttFloor must be > 0, "
                    "got ",
                    opts.rttFloor);
}

PolicyDecision
ResilienceController::baseDecision(const RoundObservation &obs) const
{
    PolicyDecision d;
    d.round = obs.round;
    d.fromStyle = currentKey;
    d.toStyle = currentKey;
    d.observedLoss = lossEwma;
    d.observedCongestion = obs.congestion;
    d.retransmitTimeout = transportOpts.retransmitTimeout;
    d.maxRetries = transportOpts.maxRetries;
    return d;
}

std::vector<PolicyDecision>
ResilienceController::observe(const RoundObservation &obs)
{
    std::vector<PolicyDecision> out;

    // Two smoothed signals from one counter sample. The loss
    // estimate discounts spurious retransmissions -- ones where both
    // copies arrived and the receiver saw a duplicate -- because the
    // analytic cost surface wants true per-packet loss, and a
    // too-tight timeout must not read its own echoes as loss. The
    // retransmit rate stays uncorrected: it measures timeout stalls,
    // which cost the same whether the packet was really lost.
    std::uint64_t attempts = obs.dataPackets + obs.retransmits;
    std::uint64_t genuine =
        obs.retransmits -
        std::min(obs.retransmits, obs.duplicatesDropped);
    if (attempts > 0) {
        double lossSample = static_cast<double>(genuine) /
                            static_cast<double>(attempts);
        double retransSample =
            static_cast<double>(obs.retransmits) /
            static_cast<double>(attempts);
        if (haveLoss) {
            lossEwma = opts.ewma * lossSample +
                       (1.0 - opts.ewma) * lossEwma;
            retransEwma = opts.ewma * retransSample +
                          (1.0 - opts.ewma) * retransEwma;
        } else {
            lossEwma = lossSample;
            retransEwma = retransSample;
        }
        haveLoss = true;
    }
    if (obs.rttSamples > 0) {
        double sample = static_cast<double>(obs.rttSumCycles) /
                        static_cast<double>(obs.rttSamples);
        rttEwma = rttEwma > 0.0 ? opts.ewma * sample +
                                      (1.0 - opts.ewma) * rttEwma
                                : sample;
    }
    if (cooldown > 0)
        --cooldown;
    unCheckpointedWords += obs.roundWords;

    core::FaultEnvironment env;
    env.packetLoss = lossEwma;
    env.congestion = std::max(1.0, obs.congestion);
    env.retransmitTimeout = transportOpts.retransmitTimeout;
    env.packetWords = layerChunkWords;
    auto rateCur = analytic.faultedRate(current, env);
    auto rateAlt = analytic.faultedRate(alternate, env);

    // When *no* demand is routable the congestion floor of 1.0 is
    // not a measurement -- comparing styles against that fictional
    // uncongested network could flip the style on garbage. Hold the
    // style and let the transport/checkpoint signals (which are real)
    // drive the round.
    bool allUnroutable =
        obs.routedDemands == 0 && obs.unroutableDemands > 0;

    // Style break-even: flip when the alternate's predicted rate
    // under the measured environment clears the hysteresis band.
    if (opts.adaptStyle && !allUnroutable && cooldown == 0 &&
        rateCur && rateAlt &&
        *rateAlt > *rateCur * (1.0 + opts.hysteresis)) {
        PolicyDecision d = baseDecision(obs);
        d.action = PolicyAction::SwitchStyle;
        d.toStyle = alternateKey;
        d.rateCurrent = *rateCur;
        d.rateAlternate = *rateAlt;
        d.reason = "alternate rate clears hysteresis band under "
                   "measured faults";
        std::swap(current, alternate);
        std::swap(currentKey, alternateKey);
        cooldown = opts.cooldownRounds;
        ++switches;
        out.push_back(std::move(d));
    }

    // Transport adaptation: sustained loss shortens the detection
    // stall and widens the retry budget; a clean channel relaxes back
    // toward the baseline. Both directions are bounded.
    auto relaxStep = [&](const char *reason) {
        transportOpts.retransmitTimeout =
            std::min({opts.maxRetransmitTimeout,
                      opts.transport.retransmitTimeout,
                      transportOpts.retransmitTimeout * 2});
        transportOpts.maxRetries = std::max(
            opts.transport.maxRetries, transportOpts.maxRetries - 4);
        PolicyDecision d = baseDecision(obs);
        d.action = PolicyAction::RelaxTransport;
        if (rateCur)
            d.rateCurrent = *rateCur;
        if (rateAlt)
            d.rateAlternate = *rateAlt;
        d.retransmitTimeout = transportOpts.retransmitTimeout;
        d.maxRetries = transportOpts.maxRetries;
        d.reason = reason;
        out.push_back(std::move(d));
    };
    if (opts.adaptTransport && haveLoss) {
        // The tightened timeout is floored at a multiple of the
        // measured round-trip (Karn-filtered samples), never just the
        // static minimum: a timeout below the loaded path RTT fires
        // before acks can possibly arrive and floods the wire with
        // spurious copies.
        Cycles floorRto = opts.minRetransmitTimeout;
        if (rttEwma > 0.0)
            floorRto = std::max(
                floorRto, static_cast<Cycles>(opts.rttFloor *
                                              rttEwma));
        floorRto = std::min(floorRto, opts.transport.retransmitTimeout);
        if (retransEwma > opts.lossTighten &&
            (transportOpts.retransmitTimeout > floorRto ||
             transportOpts.maxRetries < opts.maxRetries)) {
            transportOpts.retransmitTimeout =
                std::max(floorRto,
                         transportOpts.retransmitTimeout / 2);
            transportOpts.maxRetries = std::min(
                opts.maxRetries, transportOpts.maxRetries + 4);
            PolicyDecision d = baseDecision(obs);
            d.action = PolicyAction::TightenTransport;
            if (rateCur)
                d.rateCurrent = *rateCur;
            if (rateAlt)
                d.rateAlternate = *rateAlt;
            d.retransmitTimeout = transportOpts.retransmitTimeout;
            d.maxRetries = transportOpts.maxRetries;
            d.reason = "smoothed retransmit rate above tighten "
                       "threshold";
            out.push_back(std::move(d));
        } else if (retransEwma < opts.lossTighten / 4.0 &&
                   (transportOpts.retransmitTimeout <
                        opts.transport.retransmitTimeout ||
                    transportOpts.maxRetries >
                        opts.transport.maxRetries)) {
            relaxStep("channel clean; relaxing toward baseline");
        }
    }

    // Forced checkpoints: a node-loss signal (dead-endpoint drops,
    // or fresh reroutes from a link death) projects the repair cost
    // as everything since the last checkpoint; once that exceeds the
    // one-round cost of taking a checkpoint, force one now.
    if (opts.adaptCheckpoint) {
        bool lossSignal = obs.deadEndpointDrops > 0 ||
                          obs.reroutedLinks > lastRerouted;
        if (lossSignal && unCheckpointedWords > obs.roundWords) {
            PolicyDecision d = baseDecision(obs);
            d.action = PolicyAction::ForceCheckpoint;
            if (rateCur)
                d.rateCurrent = *rateCur;
            if (rateAlt)
                d.rateAlternate = *rateAlt;
            d.reason = "projected repair volume exceeds one-round "
                       "checkpoint cost";
            unCheckpointedWords = 0;
            out.push_back(std::move(d));
        }
    }
    lastRerouted = std::max(lastRerouted, obs.reroutedLinks);

    log.insert(log.end(), out.begin(), out.end());
    return out;
}

std::unique_ptr<ReliableLayer>
ResilienceController::makeLayer() const
{
    return std::make_unique<ReliableLayer>(lowerProgram(current),
                                           transportOpts);
}

std::uint64_t
ResilienceController::fingerprint() const
{
    // The basis is one digit short of FNV's 14695981039346656037;
    // ext_adaptive's baseline pins the fingerprints it yields.
    std::uint64_t h = 1469598103934665603ull;
    auto u64 = [&h](std::uint64_t v) { h = util::fnv1a(v, h); };
    auto real = [&](double v) { u64(std::bit_cast<std::uint64_t>(v)); };
    auto text = [&](const std::string &s) {
        u64(s.size());
        h = util::fnv1a(s, h);
    };
    for (const PolicyDecision &d : log) {
        u64(static_cast<std::uint64_t>(d.round));
        u64(static_cast<std::uint64_t>(d.action));
        text(d.fromStyle);
        text(d.toStyle);
        real(d.observedLoss);
        real(d.observedCongestion);
        real(d.rateCurrent);
        real(d.rateAlternate);
        u64(d.retransmitTimeout);
        u64(static_cast<std::uint64_t>(d.maxRetries));
        text(d.reason);
    }
    return h;
}

namespace {

std::uint64_t
walkBlock(const sim::PatternWalk &walk)
{
    return walk.pattern.isStrided() ? walk.pattern.block() : 1;
}

sim::PatternWalk
offsetWalk(const sim::PatternWalk &walk, std::uint64_t off)
{
    sim::PatternWalk w = walk;
    switch (walk.pattern.kind()) {
      case core::PatternKind::Fixed:
        break;
      case core::PatternKind::Contiguous:
        w.base += off * 8;
        break;
      case core::PatternKind::Strided: {
        std::uint64_t block = walk.pattern.block();
        if (off % block != 0)
            util::fatal("sliceFlow: offset ", off,
                        " not aligned to block ", block);
        w.base += (off / block) * walk.pattern.stride() * 8;
        break;
      }
      case core::PatternKind::Indexed:
        w.indexBase += off * 8;
        break;
    }
    return w;
}

} // namespace

std::uint64_t
sliceAlignment(const Flow &flow)
{
    std::uint64_t align = std::lcm(walkBlock(flow.srcWalk),
                                   walkBlock(flow.dstWalk));
    return std::lcm(align, walkBlock(flow.dstWalkOnSender));
}

Flow
sliceFlow(const Flow &flow, std::uint64_t offset, std::uint64_t words)
{
    if (offset + words > flow.words)
        util::fatal("sliceFlow: slice [", offset, ", ",
                    offset + words, ") exceeds flow of ", flow.words,
                    " words");
    Flow slice = flow;
    slice.words = words;
    slice.srcWalk = offsetWalk(flow.srcWalk, offset);
    slice.dstWalk = offsetWalk(flow.dstWalk, offset);
    slice.dstWalkOnSender = offsetWalk(flow.dstWalkOnSender, offset);
    return slice;
}

AdaptiveResult
runAdaptiveExchange(sim::Machine &machine, const CommOp &op,
                    ResilienceController &controller, int rounds)
{
    if (rounds < 1)
        util::fatal("runAdaptiveExchange: rounds must be >= 1, got ",
                    rounds);
    machine.setParallelEnabled(false);
    AdaptiveResult result;
    result.payloadBytes = op.totalBytes();
    seedSources(machine, op);
    Cycles start = machine.events().now();
    obs::Tracer *tracer = machine.tracer();
    std::vector<sim::TrafficDemand> demands = op.demands();
    // One scratch arena for the per-round congestion analysis: the
    // load map and route buffers are reused across every round.
    sim::CongestionScratch congestionScratch;

    for (int r = 0; r < rounds; ++r) {
        CommOp sub;
        sub.name = op.name + "/round" + std::to_string(r);
        std::uint64_t subWords = 0;
        for (const Flow &flow : op.flows) {
            std::uint64_t align = sliceAlignment(flow);
            std::uint64_t per =
                (flow.words + static_cast<std::uint64_t>(rounds) -
                 1) /
                static_cast<std::uint64_t>(rounds);
            per = (per + align - 1) / align * align;
            std::uint64_t begin = std::min(
                flow.words, static_cast<std::uint64_t>(r) * per);
            std::uint64_t end =
                r == rounds - 1
                    ? flow.words
                    : std::min(flow.words,
                               (static_cast<std::uint64_t>(r) + 1) *
                                   per);
            if (end > begin) {
                sub.flows.push_back(
                    sliceFlow(flow, begin, end - begin));
                subWords += end - begin;
            }
        }
        if (sub.flows.empty())
            continue;

        Cycles roundStart = machine.events().now();
        std::unique_ptr<ReliableLayer> layer =
            controller.makeLayer();
        RunResult rr = layer->run(machine, sub);
        result.degraded = result.degraded || rr.degraded;
        const ReliableStats &st = layer->stats();

        RoundObservation obs;
        obs.round = r;
        obs.dataPackets = st.dataPackets;
        obs.retransmits = st.retransmits;
        obs.duplicatesDropped = st.duplicatesDropped;
        obs.nacksSent = st.nacksSent;
        obs.retryExhausted = st.retryExhausted;
        obs.abandoned = st.abandoned;
        obs.deadEndpointDrops = st.deadEndpointDrops;
        obs.rttSumCycles = st.rttSumCycles;
        obs.rttSamples = st.rttSamples;
        obs.reroutedLinks = machine.network().stats().reroutedLinks;
        sim::CongestionReport congestion =
            machine.topology().analyzeCongestion(
                demands, machine.events().now(), congestionScratch);
        obs.congestion = congestion.factor;
        obs.routedDemands = congestion.routed;
        obs.unroutableDemands = congestion.unroutable;
        obs.roundWords = subWords;
        obs.roundMakespan = machine.events().now() - roundStart;

        for (const PolicyDecision &d : controller.observe(obs)) {
            switch (d.action) {
              case PolicyAction::SwitchStyle:
                ++result.styleSwitches;
                break;
              case PolicyAction::TightenTransport:
              case PolicyAction::RelaxTransport:
                ++result.transportAdaptations;
                break;
              case PolicyAction::ForceCheckpoint:
                ++result.forcedCheckpoints;
                break;
              case PolicyAction::Hold:
                break;
            }
            if (tracer)
                tracer->instant(
                    "policy", policyActionName(d.action),
                    machine.opTrack(), machine.events().now(),
                    "round", static_cast<std::uint64_t>(d.round),
                    "rto", d.retransmitTimeout);
        }
        ++result.rounds;
    }

    result.makespan = machine.events().now() - start;
    result.finalStyle = controller.styleKey();
    result.fingerprint = controller.fingerprint();
    result.decisions = controller.decisions();

    // Verify everything still owned by a reachable node. A flapped
    // node counts as reachable: its memory survives the outage.
    CommOp check;
    check.name = op.name;
    Cycles now = machine.events().now();
    const sim::Topology &topo = machine.topology();
    auto reachable = [&](NodeId n) {
        return topo.nodeAlive(n, now) || topo.nodeRecovers(n, now);
    };
    for (const Flow &flow : op.flows) {
        if (reachable(flow.src) && reachable(flow.dst))
            check.flows.push_back(flow);
        else
            ++result.skippedFlows;
    }
    result.corruptWords = verifyDelivery(machine, check);
    return result;
}

} // namespace ct::rt
