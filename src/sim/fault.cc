#include "fault.h"

#include <algorithm>
#include <sstream>

#include "sim/chaos.h"
#include "sim/event.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace ct::sim {

bool
FaultSpec::any() const
{
    return drop > 0.0 || corrupt > 0.0 || dup > 0.0 ||
           (delayMax > 0 && delayRate > 0.0) || engineStall > 0.0 ||
           engineFail > 0.0 || !linkDown.empty() ||
           !nodeDown.empty() || linkFailRate > 0.0;
}

std::optional<FaultSpec>
FaultSpec::tryParse(const std::string &spec, std::string *error)
{
    FaultSpec out;
    bool delay_rate_given = false;
    std::vector<std::string> seen;
    for (const std::string &field : util::split(spec, ',')) {
        std::string_view item = util::trim(field);
        if (item.empty())
            continue;
        auto eq = item.find('=');
        if (eq == std::string_view::npos) {
            if (error)
                *error = "expected key=value, got '" +
                         std::string(item) + "'";
            return std::nullopt;
        }
        std::string key(util::trim(item.substr(0, eq)));
        std::string value(util::trim(item.substr(eq + 1)));
        // Outage keys are repeatable; everything else set twice is a
        // typo that would silently discard the first setting.
        if (key != "link_down" && key != "node_down") {
            if (std::find(seen.begin(), seen.end(), key) !=
                seen.end()) {
                if (error)
                    *error = "duplicate key '" + key + "'";
                return std::nullopt;
            }
            seen.push_back(key);
        }
        // Rates are decimals in [0, 1], outage ids fit Outage::id,
        // counts take the uint64 range (a stall lasts >= 1 cycle).
        std::string why;
        auto rate = [&](double &v) {
            why = util::parseDecimal(value, 0.0, 1.0, v);
        };
        auto count = [&](std::uint64_t min, auto &v) {
            why = util::parseCount(value, min, UINT64_MAX, v);
        };
        auto outage = [&](std::vector<Outage> &list) {
            // "ID@CYCLE", the "@CYCLE" part optional (default 0).
            Outage o;
            auto at = value.find('@');
            std::string_view v = value;
            why = util::parseCount(v.substr(0, at), 0, INT32_MAX, o.id);
            if (why.empty() && at != std::string::npos)
                why = util::parseCount(v.substr(at + 1), 0, UINT64_MAX,
                                       o.at);
            list.push_back(o);
        };
        if (key == "drop")
            rate(out.drop);
        else if (key == "corrupt")
            rate(out.corrupt);
        else if (key == "dup")
            rate(out.dup);
        else if (key == "delay")
            count(0, out.delayMax);
        else if (key == "delay_rate") {
            rate(out.delayRate);
            delay_rate_given = true;
        } else if (key == "engine_stall")
            rate(out.engineStall);
        else if (key == "engine_stall_cycles")
            count(1, out.engineStallCycles);
        else if (key == "engine_fail")
            rate(out.engineFail);
        else if (key == "link_down")
            outage(out.linkDown);
        else if (key == "node_down")
            outage(out.nodeDown);
        else if (key == "link_fail_rate")
            rate(out.linkFailRate);
        else if (key == "seed")
            count(0, out.seed);
        else {
            if (error)
                *error = "unknown key '" + key +
                         "' (expected drop, corrupt, dup, delay, "
                         "delay_rate, engine_stall, "
                         "engine_stall_cycles, engine_fail, "
                         "link_down, node_down, link_fail_rate, "
                         "seed)";
            return std::nullopt;
        }
        if (!why.empty()) {
            if (error)
                *error = "bad value '" + value + "' for " + key +
                         ": " + why;
            return std::nullopt;
        }
    }
    if (out.delayMax > 0 && !delay_rate_given)
        out.delayRate = 0.01;
    return out;
}

FaultSpec
FaultSpec::parse(const std::string &spec)
{
    std::string error;
    std::optional<FaultSpec> out = tryParse(spec, &error);
    if (!out)
        util::fatal("FaultSpec: ", error);
    return *out;
}

std::string
FaultSpec::summary() const
{
    std::ostringstream os;
    const char *sep = "";
    auto field = [&](const char *name, double v) {
        if (v > 0.0) {
            os << sep << name << '=' << util::formatRate(v);
            sep = ",";
        }
    };
    field("drop", drop);
    field("corrupt", corrupt);
    field("dup", dup);
    if (delayMax > 0 && delayRate > 0.0) {
        os << sep << "delay=" << delayMax
           << ",delay_rate=" << util::formatRate(delayRate);
        sep = ",";
    }
    field("engine_stall", engineStall);
    if (engineStall > 0.0 &&
        engineStallCycles != FaultSpec{}.engineStallCycles)
        os << ",engine_stall_cycles=" << engineStallCycles;
    field("engine_fail", engineFail);
    for (const Outage &o : linkDown) {
        os << sep << "link_down=" << o.id << '@' << o.at;
        sep = ",";
    }
    for (const Outage &o : nodeDown) {
        os << sep << "node_down=" << o.id << '@' << o.at;
        sep = ",";
    }
    field("link_fail_rate", linkFailRate);
    if (sep[0] == '\0')
        return "none";
    os << sep << "seed=" << seed;
    return os.str();
}

FaultInjector::FaultInjector(const FaultSpec &spec,
                             obs::MetricsRegistry *registry)
    : cfg(spec), dropRng(util::mixSeed(spec.seed, 1)),
      corruptRng(util::mixSeed(spec.seed, 2)),
      dupRng(util::mixSeed(spec.seed, 3)),
      delayRng(util::mixSeed(spec.seed, 4)),
      engineRng(util::mixSeed(spec.seed, 5)),
      linkRng(util::mixSeed(spec.seed, 6))
{
    if (!registry) {
        ownedRegistry = std::make_unique<obs::MetricsRegistry>();
        registry = ownedRegistry.get();
    }
    m.drops = registry->counter("sim.fault.drops");
    m.corruptions = registry->counter("sim.fault.corruptions");
    m.duplicates = registry->counter("sim.fault.duplicates");
    m.delays = registry->counter("sim.fault.delays");
    m.delayCycles = registry->counter("sim.fault.delay_cycles");
    m.engineStalls = registry->counter("sim.fault.engine_stalls");
    m.engineStallCycles =
        registry->counter("sim.fault.engine_stall_cycles");
    m.engineFailures = registry->counter("sim.fault.engine_failures");
    m.linkFailures = registry->counter("sim.fault.link_failures");
}

void
FaultInjector::setChaos(const ChaosSchedule *schedule,
                        const EventQueue *clock)
{
    if (schedule && !clock)
        util::fatal("FaultInjector::setChaos: a schedule needs a "
                    "clock");
    chaos = schedule;
    chaosClock = clock;
}

double
FaultInjector::chaosRate(int cls) const
{
    if (!chaos)
        return 0.0;
    return chaos->rateAt(static_cast<ChaosSchedule::RateClass>(cls),
                         chaosClock->now());
}

const FaultStats &
FaultInjector::stats() const
{
    view.drops = m.drops.value();
    view.corruptions = m.corruptions.value();
    view.duplicates = m.duplicates.value();
    view.delays = m.delays.value();
    view.delayCycles = m.delayCycles.value();
    view.engineStalls = m.engineStalls.value();
    view.engineStallCycles = m.engineStallCycles.value();
    view.engineFailures = m.engineFailures.value();
    view.linkFailures = m.linkFailures.value();
    return view;
}

bool
FaultInjector::rollDrop()
{
    using RC = ChaosSchedule::RateClass;
    bool scheduled = chaos && chaos->hasRate(RC::Drop);
    if (cfg.drop <= 0.0 && !scheduled)
        return false;
    // The draw happens whenever the class is *active* (static rate
    // or schedule), not whenever the current rate is non-zero: a
    // ramp still at zero must consume the same draws it consumes on
    // replay.
    double rate = cfg.drop;
    if (scheduled)
        rate = std::min(
            1.0, rate + chaosRate(static_cast<int>(RC::Drop)));
    bool hit = dropRng.nextDouble() < rate;
    if (hit)
        m.drops.inc();
    return hit;
}

bool
FaultInjector::rollCorrupt()
{
    using RC = ChaosSchedule::RateClass;
    bool scheduled = chaos && chaos->hasRate(RC::Corrupt);
    if (cfg.corrupt <= 0.0 && !scheduled)
        return false;
    double rate = cfg.corrupt;
    if (scheduled)
        rate = std::min(
            1.0, rate + chaosRate(static_cast<int>(RC::Corrupt)));
    bool hit = corruptRng.nextDouble() < rate;
    if (hit)
        m.corruptions.inc();
    return hit;
}

bool
FaultInjector::rollDuplicate()
{
    using RC = ChaosSchedule::RateClass;
    bool scheduled = chaos && chaos->hasRate(RC::Dup);
    if (cfg.dup <= 0.0 && !scheduled)
        return false;
    double rate = cfg.dup;
    if (scheduled)
        rate = std::min(
            1.0, rate + chaosRate(static_cast<int>(RC::Dup)));
    bool hit = dupRng.nextDouble() < rate;
    if (hit)
        m.duplicates.inc();
    return hit;
}

Cycles
FaultInjector::rollDelay()
{
    if (cfg.delayMax == 0 || cfg.delayRate <= 0.0)
        return 0;
    if (delayRng.nextDouble() >= cfg.delayRate)
        return 0;
    Cycles extra = 1 + delayRng.nextBelow(cfg.delayMax);
    m.delays.inc();
    m.delayCycles.add(extra);
    return extra;
}

void
FaultInjector::corruptPayload(Packet &packet)
{
    if (packet.words.empty())
        return;
    std::uint64_t word = corruptRng.nextBelow(packet.words.size());
    std::uint64_t bit = corruptRng.nextBelow(64);
    packet.words[word] ^= 1ULL << bit;
}

Cycles
FaultInjector::rollEngineStall()
{
    if (cfg.engineStall <= 0.0 || cfg.engineStallCycles == 0)
        return 0;
    if (engineRng.nextDouble() >= cfg.engineStall)
        return 0;
    m.engineStalls.inc();
    m.engineStallCycles.add(cfg.engineStallCycles);
    return cfg.engineStallCycles;
}

bool
FaultInjector::rollEngineFailure()
{
    if (cfg.engineFail <= 0.0)
        return false;
    bool hit = engineRng.nextDouble() < cfg.engineFail;
    if (hit)
        m.engineFailures.inc();
    return hit;
}

bool
FaultInjector::rollLinkFailure()
{
    if (cfg.linkFailRate <= 0.0)
        return false;
    bool hit = linkRng.nextDouble() < cfg.linkFailRate;
    if (hit)
        m.linkFailures.inc();
    return hit;
}

std::uint64_t
FaultInjector::pickFailingLink(std::uint64_t route_links)
{
    return linkRng.nextBelow(route_links);
}

} // namespace ct::sim
