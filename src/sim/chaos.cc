#include "chaos.h"

#include <algorithm>
#include <sstream>

#include "util/hash.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace ct::sim {

namespace {

std::optional<ChaosSchedule::RateClass>
parseClass(const std::string &token)
{
    using RC = ChaosSchedule::RateClass;
    if (token == "drop")
        return RC::Drop;
    if (token == "corrupt")
        return RC::Corrupt;
    if (token == "dup")
        return RC::Dup;
    return std::nullopt;
}

const char *
className(ChaosSchedule::RateClass cls)
{
    using RC = ChaosSchedule::RateClass;
    switch (cls) {
      case RC::Drop:
        return "drop";
      case RC::Corrupt:
        return "corrupt";
      case RC::Dup:
        return "dup";
    }
    return "?";
}

bool
fail(std::string *error, const std::string &message)
{
    if (error)
        *error = message;
    return false;
}

/** Parse one semicolon-separated item into @p out. */
bool
parseItem(const std::string &item, ChaosSchedule &out,
          std::string *error)
{
    std::vector<std::string> f;
    for (const std::string &field : util::split(item, ':'))
        f.emplace_back(util::trim(field));
    const std::string &verb = f[0];

    // Field parsers: false with a diagnostic naming the token.
    // Rates are decimals in [0, 1], cycles and seeds take the full
    // uint64 range, victim counts fit Cascade::count / Flap::count.
    auto check = [&](const char *what, const std::string &token,
                     const std::string &why) {
        return why.empty() ||
               fail(error, std::string("bad ") + what + " '" + token +
                               "' in '" + item + "': " + why);
    };
    auto rate = [&](const std::string &token, double &v) {
        return check("rate", token,
                     util::parseDecimal(token, 0.0, 1.0, v));
    };
    auto cycles = [&](const std::string &token, Cycles &v) {
        return check("count", token,
                     util::parseCount(token, 0, UINT64_MAX, v));
    };
    auto victims = [&](const std::string &token, int &v) {
        return check("victim count", token,
                     util::parseCount(token, 1, INT32_MAX, v));
    };

    if (verb == "seed") {
        if (f.size() != 2)
            return fail(error, "seed takes one field, got '" + item +
                                   "'");
        return check("seed", f[1],
                     util::parseCount(f[1], 0, UINT64_MAX, out.seed));
    }

    if (verb == "step" || verb == "ramp") {
        bool step = verb == "step";
        std::size_t want = step ? 4 : 6;
        if (f.size() != want)
            return fail(error, verb + " takes " +
                                   (step ? std::string("CLASS:R:T")
                                         : std::string(
                                               "CLASS:R0:R1:T0:T1")) +
                                   ", got '" + item + "'");
        auto cls = parseClass(f[1]);
        if (!cls)
            return fail(error, "unknown fault class '" + f[1] +
                                   "' (expected drop, corrupt, dup)");
        ChaosSchedule::RatePhase phase;
        phase.cls = *cls;
        if (step) {
            if (!rate(f[2], phase.r1) || !cycles(f[3], phase.t0))
                return false;
            phase.r0 = phase.r1;
            phase.t1 = phase.t0;
        } else {
            if (!rate(f[2], phase.r0) || !rate(f[3], phase.r1) ||
                !cycles(f[4], phase.t0) || !cycles(f[5], phase.t1))
                return false;
            if (phase.t1 <= phase.t0)
                return fail(error, "ramp needs T1 > T0 in '" + item +
                                       "'");
        }
        out.phases.push_back(phase);
        return true;
    }

    if (verb == "cascade" || verb == "flap") {
        bool cascade = verb == "cascade";
        std::size_t want = cascade ? 5 : 6;
        if (f.size() != want)
            return fail(error,
                        verb + " takes " +
                            (cascade
                                 ? std::string("link|node:N:T:GAP")
                                 : std::string(
                                       "link|node:N:T:PERIOD:DOWN")) +
                            ", got '" + item + "'");
        bool nodes;
        if (f[1] == "link")
            nodes = false;
        else if (f[1] == "node")
            nodes = true;
        else
            return fail(error, "unknown target '" + f[1] +
                                   "' (expected link or node)");
        if (cascade) {
            ChaosSchedule::Cascade c;
            c.nodes = nodes;
            if (!victims(f[2], c.count) || !cycles(f[3], c.at) ||
                !cycles(f[4], c.gap))
                return false;
            out.cascades.push_back(c);
        } else {
            ChaosSchedule::Flap fl;
            fl.nodes = nodes;
            if (!victims(f[2], fl.count) || !cycles(f[3], fl.spec.at) ||
                !cycles(f[4], fl.spec.period) ||
                !cycles(f[5], fl.spec.down))
                return false;
            if (fl.spec.period == 0 || fl.spec.down == 0 ||
                fl.spec.down >= fl.spec.period)
                return fail(error,
                            "flap needs 0 < DOWN < PERIOD in '" +
                                item + "'");
            out.flaps.push_back(fl);
        }
        return true;
    }

    return fail(error, "unknown verb '" + verb +
                           "' (expected seed, step, ramp, cascade, "
                           "flap)");
}

} // namespace

bool
ChaosSchedule::any() const
{
    return !phases.empty() || !cascades.empty() || !flaps.empty();
}

bool
ChaosSchedule::hasRate(RateClass cls) const
{
    for (const RatePhase &phase : phases)
        if (phase.cls == cls)
            return true;
    return false;
}

double
ChaosSchedule::rateAt(RateClass cls, Cycles now) const
{
    double rate = 0.0;
    for (const RatePhase &phase : phases) {
        if (phase.cls != cls || now < phase.t0)
            continue;
        if (now >= phase.t1)
            rate += phase.r1;
        else
            rate += phase.r0 + (phase.r1 - phase.r0) *
                                   static_cast<double>(now - phase.t0) /
                                   static_cast<double>(phase.t1 -
                                                       phase.t0);
    }
    return std::min(rate, 1.0);
}

std::optional<ChaosSchedule>
ChaosSchedule::tryParse(const std::string &spec, std::string *error)
{
    ChaosSchedule out;
    for (const std::string &item : util::split(spec, ';')) {
        std::string trimmed(util::trim(item));
        if (trimmed.empty())
            continue;
        if (!parseItem(trimmed, out, error))
            return std::nullopt;
    }
    return out;
}

ChaosSchedule
ChaosSchedule::parse(const std::string &spec)
{
    std::string error;
    std::optional<ChaosSchedule> out = tryParse(spec, &error);
    if (!out)
        util::fatal("ChaosSchedule: ", error);
    return *out;
}

std::string
ChaosSchedule::summary() const
{
    if (!any())
        return "none";
    std::ostringstream os;
    const char *sep = "";
    for (const RatePhase &phase : phases) {
        os << sep;
        if (phase.t0 == phase.t1)
            os << "step:" << className(phase.cls) << ':'
               << util::formatRate(phase.r1) << ':' << phase.t0;
        else
            os << "ramp:" << className(phase.cls) << ':'
               << util::formatRate(phase.r0) << ':'
               << util::formatRate(phase.r1) << ':' << phase.t0 << ':'
               << phase.t1;
        sep = ";";
    }
    for (const Cascade &c : cascades) {
        os << sep << "cascade:" << (c.nodes ? "node" : "link") << ':'
           << c.count << ':' << c.at << ':' << c.gap;
        sep = ";";
    }
    for (const Flap &fl : flaps) {
        os << sep << "flap:" << (fl.nodes ? "node" : "link") << ':'
           << fl.count << ':' << fl.spec.at << ':' << fl.spec.period
           << ':' << fl.spec.down;
        sep = ";";
    }
    os << sep << "seed:" << seed;
    return os.str();
}

void
ChaosSchedule::applyOutages(Topology &topo) const
{
    if (cascades.empty() && flaps.empty())
        return;
    // The victim stream sits far above the injector's per-class
    // streams 1-6, so the two families never collide.
    util::Rng rng(util::mixSeed(seed, 101));

    // Draw @p count distinct victims from [0, space).
    auto draw = [&rng](int count, int space, const char *what) {
        if (count > space)
            util::fatal("ChaosSchedule: ", what, " wants ", count,
                        " victims but the machine only has ", space);
        std::vector<int> victims;
        while (static_cast<int>(victims.size()) < count) {
            int v = static_cast<int>(
                rng.nextBelow(static_cast<std::uint64_t>(space)));
            if (std::find(victims.begin(), victims.end(), v) ==
                victims.end())
                victims.push_back(v);
        }
        return victims;
    };

    for (const Cascade &c : cascades) {
        auto victims =
            draw(c.count,
                 c.nodes ? topo.nodeCount() : topo.networkLinkCount(),
                 c.nodes ? "node cascade" : "link cascade");
        for (std::size_t i = 0; i < victims.size(); ++i) {
            Cycles at = c.at + static_cast<Cycles>(i) * c.gap;
            if (c.nodes)
                topo.downNode(victims[i], at);
            else
                topo.downLink(victims[i], at);
        }
    }
    for (const Flap &fl : flaps) {
        auto victims = draw(fl.count,
                            fl.nodes ? topo.nodeCount()
                                     : topo.networkLinkCount(),
                            fl.nodes ? "node flap" : "link flap");
        for (int v : victims) {
            if (fl.nodes)
                topo.flapNode(v, fl.spec);
            else
                topo.flapLink(v, fl.spec);
        }
    }
}

} // namespace ct::sim
