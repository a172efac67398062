#include "svc/chaos.h"

#include <algorithm>
#include <sstream>

#include "util/hash.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace ct::svc {

// Each decision draws from a fresh Rng seeded by the seed mixed with
// a per-purpose tag and the decision's stable identifier, so no
// ordering between decisions can shift any other decision.

bool
SvcChaos::stallFor(std::uint64_t index) const
{
    if (stallRate <= 0.0)
        return false;
    util::Rng rng(seed ^ util::fnv1a(index, util::fnv1a("svc.stall")));
    return rng.nextDouble() < stallRate;
}

std::optional<std::uint32_t>
SvcChaos::flipBitFor(const std::string &key) const
{
    if (flipRate <= 0.0)
        return std::nullopt;
    util::Rng rng(seed ^ util::fnv1a(key, util::fnv1a("svc.flip")));
    if (rng.nextDouble() >= flipRate)
        return std::nullopt;
    return static_cast<std::uint32_t>(rng.nextBelow(1u << 20));
}

bool
SvcChaos::saturatedAt(std::uint64_t index) const
{
    for (const SaturationWindow &w : saturations)
        if (index >= w.start && index - w.start < w.count)
            return true;
    return false;
}

std::optional<SvcChaos>
SvcChaos::tryParse(const std::string &spec, std::string *error)
{
    auto fail = [&](const std::string &msg) {
        if (error)
            *error = msg;
        return std::nullopt;
    };

    auto rate = [](const std::string &s, double &out) {
        return util::parseDecimal(s, 0.0, 1.0, out).empty();
    };
    auto count = [](const std::string &s, std::uint64_t min,
                    std::uint64_t max, auto &out) {
        return util::parseCount(s, min, max, out).empty();
    };

    SvcChaos chaos;
    // "none" is the canonical rendering of an inactive plan (see
    // summary()); accept it so summaries always round-trip.
    if (spec.empty() || spec == "none")
        return chaos;

    bool seed_seen = false, stall_seen = false, flip_seen = false;
    for (const std::string &item : util::split(spec, ';')) {
        if (item.empty())
            return fail("empty item in svc-chaos spec");

        std::vector<std::string> f = util::split(item, ':');
        if (std::find(f.begin(), f.end(), "") != f.end())
            return fail("empty field in svc-chaos item '" + item +
                        "'");
        const std::string &verb = f[0];
        if (verb == "seed") {
            if (f.size() != 2 || !count(f[1], 0, UINT64_MAX, chaos.seed))
                return fail("bad seed item '" + item +
                            "' (expected seed:N)");
            if (seed_seen)
                return fail("duplicate seed item '" + item + "'");
            seed_seen = true;
        } else if (verb == "stall") {
            if (f.size() != 3 || !rate(f[1], chaos.stallRate) ||
                !count(f[2], 0, 60000, chaos.stallMillis))
                return fail("bad stall item '" + item +
                            "' (expected stall:RATE:MS, rate in "
                            "[0,1], ms <= 60000)");
            if (stall_seen)
                return fail("duplicate stall item '" + item + "'");
            stall_seen = true;
        } else if (verb == "flip") {
            if (f.size() != 2 || !rate(f[1], chaos.flipRate))
                return fail("bad flip item '" + item +
                            "' (expected flip:RATE, rate in [0,1])");
            if (flip_seen)
                return fail("duplicate flip item '" + item + "'");
            flip_seen = true;
        } else if (verb == "satq") {
            SaturationWindow w;
            if (f.size() != 3 || !count(f[1], 0, UINT64_MAX, w.start) ||
                !count(f[2], 1, UINT64_MAX, w.count))
                return fail("bad satq item '" + item +
                            "' (expected satq:START:COUNT, "
                            "count > 0)");
            chaos.saturations.push_back(w);
        } else
            return fail("unknown svc-chaos verb '" + verb + "'");
    }
    return chaos;
}

std::string
SvcChaos::summary() const
{
    if (!any())
        return "none";
    std::ostringstream os;
    os << "seed:" << seed;
    if (stallRate > 0.0)
        os << ";stall:" << util::formatRate(stallRate) << ':'
           << stallMillis;
    if (flipRate > 0.0)
        os << ";flip:" << util::formatRate(flipRate);
    for (const SaturationWindow &w : saturations)
        os << ";satq:" << w.start << ':' << w.count;
    return os.str();
}

} // namespace ct::svc
