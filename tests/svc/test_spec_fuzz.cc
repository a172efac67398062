/**
 * @file
 * Spec-grammar fuzzing for the text specs a run or a request carries:
 * FaultSpec, ChaosSchedule, SvcChaos and the sweep grid. Random valid
 * specs, with rates of up to 17 significant digits and counts up to
 * each field's maximum, must come back field for field from
 * parse(summary()). Seeded byte mutations of them must either parse
 * to a spec whose summary round-trips or be rejected with a
 * diagnostic; nothing may crash. NDJSON service requests get the same
 * treatment: a mutated line either parses to a request whose
 * memoization key survives rendering it back to a line, or the
 * service answers it in band with an error.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/planner.h"
#include "sim/chaos.h"
#include "sim/fault.h"
#include "svc/chaos.h"
#include "svc/json.h"
#include "svc/service.h"
#include "sweep/grid.h"
#include "util/rng.h"

namespace {

using namespace ct;
using sim::ChaosSchedule;
using sim::FaultSpec;
using svc::SvcChaos;
using util::Rng;

constexpr std::uint64_t kMax = UINT64_MAX;

/** A count in [min, max], often one of the range's ends. */
std::uint64_t
randomCount(Rng &rng, std::uint64_t min, std::uint64_t max)
{
    switch (rng.nextBelow(4)) {
      case 0:
        return min;
      case 1:
        return max;
      default:
        return max - min == kMax ? rng.next()
                                 : min + rng.nextBelow(max - min + 1);
    }
}

/** A rate in (0, 1]: short decimals, 17-digit values, denormals. */
double
randomRate(Rng &rng)
{
    double r = 0.0;
    switch (rng.nextBelow(4)) {
      case 0:
        r = 1.0;
        break;
      case 1:
        r = static_cast<double>(1 + rng.nextBelow(999)) / 1000.0;
        break;
      case 2:
        r = std::ldexp(rng.nextDouble(),
                       -static_cast<int>(rng.nextBelow(1070)));
        break;
      default:
        r = rng.nextDouble();
    }
    return r > 0.0 ? r : 0.5;
}

FaultSpec
randomFaults(Rng &rng, bool outages)
{
    FaultSpec s;
    for (double *rate : {&s.drop, &s.corrupt, &s.dup, &s.engineFail,
                         &s.linkFailRate})
        if (rng.nextBelow(2))
            *rate = randomRate(rng);
    if (rng.nextBelow(2)) {
        s.delayMax = randomCount(rng, 1, kMax);
        s.delayRate = randomRate(rng);
    }
    if (rng.nextBelow(2)) {
        s.engineStall = randomRate(rng);
        s.engineStallCycles = randomCount(rng, 1, kMax);
    }
    for (auto *list : {&s.linkDown, &s.nodeDown})
        for (std::uint64_t n = outages ? rng.nextBelow(3) : 0; n > 0;
             --n)
            list->push_back(
                {static_cast<std::int32_t>(randomCount(rng, 0, INT32_MAX)),
                 randomCount(rng, 0, kMax)});
    s.seed = randomCount(rng, 0, kMax);
    if (!s.any())
        s.drop = randomRate(rng);
    return s;
}

auto
fields(const FaultSpec &s)
{
    auto outages = [](const std::vector<FaultSpec::Outage> &list) {
        std::vector<std::tuple<std::int32_t, std::uint64_t>> out;
        for (const FaultSpec::Outage &o : list)
            out.emplace_back(o.id, o.at);
        return out;
    };
    return std::tuple(s.drop, s.corrupt, s.dup, s.delayMax, s.delayRate,
                      s.engineStall, s.engineStallCycles, s.engineFail,
                      s.linkFailRate, s.seed, outages(s.linkDown),
                      outages(s.nodeDown));
}

ChaosSchedule
randomChaos(Rng &rng)
{
    using RC = ChaosSchedule::RateClass;
    ChaosSchedule s;
    for (std::uint64_t n = rng.nextBelow(3); n > 0; --n) {
        ChaosSchedule::RatePhase p;
        p.cls = static_cast<RC>(rng.nextBelow(3));
        p.r1 = randomRate(rng);
        if (rng.nextBelow(2)) { // step
            p.r0 = p.r1;
            p.t0 = p.t1 = randomCount(rng, 0, kMax);
        } else {
            p.r0 = rng.nextBelow(4) ? randomRate(rng) : 0.0;
            p.t0 = randomCount(rng, 0, kMax - 1);
            p.t1 = randomCount(rng, p.t0 + 1, kMax);
        }
        s.phases.push_back(p);
    }
    for (std::uint64_t n = rng.nextBelow(3); n > 0; --n)
        s.cascades.push_back(
            {rng.nextBelow(2) == 1,
             static_cast<int>(randomCount(rng, 1, INT32_MAX)),
             randomCount(rng, 0, kMax), randomCount(rng, 0, kMax)});
    for (std::uint64_t n = rng.nextBelow(3); n > 0; --n) {
        ChaosSchedule::Flap f;
        f.nodes = rng.nextBelow(2) == 1;
        f.count = static_cast<int>(randomCount(rng, 1, INT32_MAX));
        f.spec.at = randomCount(rng, 0, kMax);
        f.spec.period = randomCount(rng, 2, kMax);
        f.spec.down = randomCount(rng, 1, f.spec.period - 1);
        s.flaps.push_back(f);
    }
    s.seed = randomCount(rng, 0, kMax);
    if (!s.any())
        s.phases.push_back({RC::Dup, 0.5, 0.5, 7, 7});
    return s;
}

auto
fields(const ChaosSchedule &s)
{
    std::vector<std::tuple<int, double, double, std::uint64_t,
                           std::uint64_t>>
        phases;
    for (const ChaosSchedule::RatePhase &p : s.phases)
        phases.emplace_back(static_cast<int>(p.cls), p.r0, p.r1, p.t0,
                            p.t1);
    std::vector<std::tuple<bool, int, std::uint64_t, std::uint64_t>>
        cascades;
    for (const ChaosSchedule::Cascade &c : s.cascades)
        cascades.emplace_back(c.nodes, c.count, c.at, c.gap);
    std::vector<std::tuple<bool, int, std::uint64_t, std::uint64_t,
                           std::uint64_t>>
        flaps;
    for (const ChaosSchedule::Flap &f : s.flaps)
        flaps.emplace_back(f.nodes, f.count, f.spec.at, f.spec.period,
                           f.spec.down);
    return std::tuple(phases, cascades, flaps, s.seed);
}

SvcChaos
randomSvcChaos(Rng &rng)
{
    SvcChaos s;
    s.seed = randomCount(rng, 0, kMax);
    if (rng.nextBelow(2)) {
        s.stallRate = randomRate(rng);
        s.stallMillis =
            static_cast<std::uint32_t>(randomCount(rng, 0, 60000));
    }
    if (rng.nextBelow(2))
        s.flipRate = randomRate(rng);
    for (std::uint64_t n = rng.nextBelow(3); n > 0; --n)
        s.saturations.push_back(
            {randomCount(rng, 0, kMax), randomCount(rng, 1, kMax)});
    if (!s.any())
        s.flipRate = randomRate(rng);
    return s;
}

auto
fields(const SvcChaos &s)
{
    std::vector<std::tuple<std::uint64_t, std::uint64_t>> windows;
    for (const SvcChaos::SaturationWindow &w : s.saturations)
        windows.emplace_back(w.start, w.count);
    return std::tuple(s.seed, s.stallRate, s.stallMillis, s.flipRate,
                      windows);
}

/** A dimension-list grid spec and the word, node and fault lists its
 *  cells must carry, in canonical order. */
struct GridText
{
    std::string spec;
    std::vector<std::uint64_t> words;
    std::vector<int> nodes{0};
    std::vector<FaultSpec> faults{FaultSpec{}};
};

GridText
randomGrid(Rng &rng)
{
    GridText g;
    // Exchange cells must fit node RAM; copies size their own arena.
    bool exchange = rng.nextBelow(2) == 1;
    g.spec = exchange ? "kind=exchange;machine=t3d;style=chained;x=1;y=1"
                      : "kind=copy;machine=paragon;x=16;y=1";
    const char *sep = ";words=";
    for (std::uint64_t n = 1 + rng.nextBelow(3); n > 0; --n) {
        g.words.push_back(randomCount(rng, 1, exchange ? 1024 : kMax));
        g.spec += sep + std::to_string(g.words.back());
        sep = ",";
    }
    if (exchange && rng.nextBelow(2)) {
        g.nodes.clear();
        sep = ";nodes=";
        for (std::uint64_t n = 1 + rng.nextBelow(2); n > 0; --n) {
            g.nodes.push_back(8 << rng.nextBelow(11));
            g.spec += sep + std::to_string(g.nodes.back());
            sep = ",";
        }
    }
    if (rng.nextBelow(2)) {
        g.faults.clear();
        sep = ";faults=";
        for (std::uint64_t n = 1 + rng.nextBelow(2); n > 0; --n) {
            g.faults.push_back(rng.nextBelow(4) ? randomFaults(rng, false)
                                                : FaultSpec{});
            g.spec += sep + g.faults.back().summary();
            sep = "|";
        }
    }
    return g;
}

/** @p text after one to four seeded edits: a byte deleted, or a
 *  token from the number alphabet or a grammar separator inserted
 *  or written over a byte. */
std::string
mutate(Rng &rng, std::string text, const std::string &separators)
{
    static const char *const kTokens[] = {
        "-", "+", ".", "e", "E", "x", "nan", "inf", "0", "1", "9", " ",
        "0x1", "1e999", "4294967296", "18446744073709551616"};
    for (std::uint64_t n = 1 + rng.nextBelow(4); n > 0; --n) {
        std::size_t pos = rng.nextBelow(text.size() + 1);
        std::string token =
            rng.nextBelow(4) == 0
                ? std::string(1, separators[rng.nextBelow(
                                     separators.size())])
                : kTokens[rng.nextBelow(std::size(kTokens))];
        switch (rng.nextBelow(3)) {
          case 0:
            text.erase(pos, 1);
            break;
          case 1:
            text.insert(pos, token);
            break;
          default:
            text.replace(pos, 1, token);
        }
    }
    return text;
}

/** Mutants of @p spec parse to a summary that round-trips, or fail
 *  with a diagnostic. */
template <typename Spec>
void
checkMutants(Rng &rng, const std::string &spec,
             const std::string &separators)
{
    for (int i = 0; i < 8; ++i) {
        std::string text = mutate(rng, spec, separators);
        std::string error;
        std::optional<Spec> parsed = Spec::tryParse(text, &error);
        if (!parsed) {
            EXPECT_FALSE(error.empty()) << "no diagnostic for " << text;
            continue;
        }
        std::string summary = parsed->summary();
        if (summary == "none")
            continue; // an inactive spec; FaultSpec reads it from ""
        std::optional<Spec> again = Spec::tryParse(summary, &error);
        ASSERT_TRUE(again) << text << " -> " << summary << ": " << error;
        EXPECT_EQ(again->summary(), summary) << text;
    }
}

class SpecFuzz : public testing::TestWithParam<std::uint64_t>
{};

TEST_P(SpecFuzz, FaultSpecRoundTripsEveryField)
{
    Rng rng(GetParam());
    for (int i = 0; i < 40; ++i) {
        FaultSpec s = randomFaults(rng, true);
        std::string error;
        auto back = FaultSpec::tryParse(s.summary(), &error);
        ASSERT_TRUE(back) << s.summary() << ": " << error;
        EXPECT_EQ(fields(*back), fields(s)) << s.summary();
    }
}

TEST_P(SpecFuzz, FaultSpecMutantsParseOrFailLoudly)
{
    Rng rng(GetParam() + 100);
    for (int i = 0; i < 25; ++i)
        checkMutants<FaultSpec>(rng, randomFaults(rng, true).summary(),
                                ",=@");
}

TEST_P(SpecFuzz, ChaosScheduleRoundTripsEveryField)
{
    Rng rng(GetParam() + 200);
    for (int i = 0; i < 40; ++i) {
        ChaosSchedule s = randomChaos(rng);
        std::string error;
        auto back = ChaosSchedule::tryParse(s.summary(), &error);
        ASSERT_TRUE(back) << s.summary() << ": " << error;
        EXPECT_EQ(fields(*back), fields(s)) << s.summary();
    }
}

TEST_P(SpecFuzz, ChaosScheduleMutantsParseOrFailLoudly)
{
    Rng rng(GetParam() + 300);
    for (int i = 0; i < 25; ++i)
        checkMutants<ChaosSchedule>(rng, randomChaos(rng).summary(),
                                    ";:");
}

TEST_P(SpecFuzz, SvcChaosRoundTripsEveryField)
{
    Rng rng(GetParam() + 400);
    for (int i = 0; i < 40; ++i) {
        SvcChaos s = randomSvcChaos(rng);
        std::string error;
        auto back = SvcChaos::tryParse(s.summary(), &error);
        ASSERT_TRUE(back) << s.summary() << ": " << error;
        EXPECT_EQ(fields(*back), fields(s)) << s.summary();
    }
}

TEST_P(SpecFuzz, SvcChaosMutantsParseOrFailLoudly)
{
    Rng rng(GetParam() + 500);
    for (int i = 0; i < 25; ++i)
        checkMutants<SvcChaos>(rng, randomSvcChaos(rng).summary(), ";:");
}

TEST_P(SpecFuzz, GridSpecCarriesEveryNumberExactly)
{
    Rng rng(GetParam() + 600);
    for (int i = 0; i < 10; ++i) {
        GridText g = randomGrid(rng);
        std::string error;
        auto grid = sweep::Grid::parse(g.spec, &error);
        ASSERT_TRUE(grid) << g.spec << ": " << error;
        std::vector<sweep::CellSpec> cells = grid->cells();
        ASSERT_EQ(cells.size(),
                  g.words.size() * g.nodes.size() * g.faults.size())
            << g.spec;
        std::size_t c = 0;
        for (std::uint64_t words : g.words)
            for (int nodes : g.nodes)
                for (const FaultSpec &faults : g.faults) {
                    EXPECT_EQ(cells[c].words, words) << g.spec;
                    EXPECT_EQ(cells[c].nodes, nodes) << g.spec;
                    EXPECT_EQ(fields(cells[c].faults), fields(faults))
                        << g.spec;
                    ++c;
                }
    }
}

TEST_P(SpecFuzz, GridMutantsParseOrFailLoudly)
{
    Rng rng(GetParam() + 700);
    for (int i = 0; i < 40; ++i) {
        std::string text = mutate(rng, randomGrid(rng).spec, ";=,|:.");
        std::string error;
        auto grid = sweep::Grid::parse(text, &error);
        if (!grid) {
            EXPECT_FALSE(error.empty()) << "no diagnostic for " << text;
            continue;
        }
        for (const sweep::CellSpec &cell : grid->cells()) {
            if (!cell.faults.any())
                continue;
            std::string summary = cell.faults.summary();
            auto again = FaultSpec::tryParse(summary, &error);
            ASSERT_TRUE(again) << text << " -> " << summary;
            EXPECT_EQ(again->summary(), summary) << text;
        }
    }
}

/** The lines of the committed serve-smoke request log. */
std::vector<std::string>
serveLogLines()
{
    std::ifstream in(CT_SVC_TEST_DATA "/serve_requests.ndjson");
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    return lines;
}

/** A request in the storm workload's shape: a plan, with or without a
 *  message size, or a short sim, sometimes under a fault spec. */
std::string
stormLine(Rng &rng, std::uint64_t id)
{
    static const char *const patterns[] = {
        "1", "2", "3", "4", "8", "16", "32", "64", "256", "1024", "w",
        "16.2"};
    bool sim = rng.nextBelow(4) == 0;
    std::string line = "{\"id\":" + std::to_string(id) + ",\"op\":\"" +
                       (sim ? "sim" : "plan") + "\",\"machine\":\"" +
                       (rng.nextBelow(2) ? "t3d" : "paragon") +
                       "\",\"xqy\":\"" + patterns[rng.nextBelow(12)] +
                       "Q" + patterns[rng.nextBelow(12)] + "\"";
    if (sim) {
        line += ",\"words\":" + std::to_string(512 << rng.nextBelow(3)) +
                ",\"budget\":" + std::to_string(2000 << rng.nextBelow(3));
        if (rng.nextBelow(2))
            line += ",\"faults\":\"" + randomFaults(rng, false).summary() +
                    "\"";
    } else if (rng.nextBelow(4)) {
        line += ",\"bytes\":" + std::to_string(512 << rng.nextBelow(9));
    }
    return line + "}";
}

/** @p r rendered back to a request line: the fields its op takes,
 *  patterns and specs in their canonical spelling. */
std::string
renderRequest(const svc::Request &r)
{
    svc::JsonWriter w;
    w.field("id", r.id).field("op", svc::opName(r.op));
    if (r.needsQuery())
        w.field("machine",
                r.machine == core::MachineId::T3d ? "t3d" : "paragon")
            .field("xqy", r.x.label() + "Q" + r.y.label());
    if (r.op == svc::Op::Plan)
        w.field("bytes", r.bytes);
    if (r.op == svc::Op::Sim) {
        w.field("words", r.words).field("budget", r.budget);
        for (const auto &[key, summary] :
             {std::pair{"faults", r.faultsSummary},
              std::pair{"chaos", r.chaosSummary}})
            if (!summary.empty() && summary != "none")
                w.field(key, summary);
    }
    return w.str();
}

/** The identity the service answers @p r under: its memoization key
 *  for plan and sim, its op otherwise. */
std::string
requestKey(const svc::Request &r)
{
    switch (r.op) {
      case svc::Op::Plan:
        return core::canonicalQueryKey("plan", r.machine, r.x, r.y, 0,
                                       r.bytes, 0, "", "");
      case svc::Op::Sim:
        return core::canonicalQueryKey("sim", r.machine, r.x, r.y,
                                       r.words, 0, r.budget,
                                       r.faultsSummary, r.chaosSummary);
      default:
        return svc::opName(r.op);
    }
}

TEST_P(SpecFuzz, RequestMutantsRoundTripOrAnswerAnError)
{
    Rng rng(GetParam() + 800);
    std::vector<std::string> seeds = serveLogLines();
    ASSERT_FALSE(seeds.empty());
    for (std::uint64_t id = 1; id <= 40; ++id)
        seeds.push_back(stormLine(rng, id));
    svc::ServiceOptions opts;
    opts.workers = 0;
    svc::PlanService service(opts, [](const svc::ServiceResponse &) {});
    // Most mutants break the JSON; enough land in a value or between
    // tokens to parse (a few dozen per seed).
    for (int i = 0; i < 1000; ++i) {
        std::string text =
            mutate(rng, seeds[rng.nextBelow(seeds.size())], "{}\":,Q");
        std::string error;
        std::optional<svc::Request> req;
        ASSERT_NO_THROW(req = svc::Request::tryParse(text, &error, nullptr))
            << text;
        if (req) {
            std::string line = renderRequest(*req);
            auto again = svc::Request::tryParse(line, &error, nullptr);
            ASSERT_TRUE(again) << text << " -> " << line << ": " << error;
            EXPECT_EQ(again->id, req->id) << text << " -> " << line;
            EXPECT_EQ(requestKey(*again), requestKey(*req))
                << text << " -> " << line;
            continue;
        }
        // Rejected lines never reach a handler, so answering them
        // costs no simulation.
        EXPECT_FALSE(error.empty()) << "no diagnostic for " << text;
        svc::ServiceResponse resp;
        ASSERT_NO_THROW(resp = service.handleLine(text)) << text;
        EXPECT_EQ(resp.status, svc::Status::Error) << text;
        auto answer = svc::parseFlatJson(resp.line, &error);
        ASSERT_TRUE(answer) << resp.line << ": " << error;
        const svc::JsonField *status = answer->find("status");
        const svc::JsonField *diagnostic = answer->find("error");
        ASSERT_TRUE(status && diagnostic) << resp.line;
        EXPECT_EQ(status->str(), "error") << resp.line;
        EXPECT_FALSE(diagnostic->str().empty()) << resp.line;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SpecFuzz,
                         testing::Range<std::uint64_t>(1, 9));

} // namespace
