#include "svc/chaos.h"

#include <vector>

#include <gtest/gtest.h>

namespace svc = ct::svc;

namespace {

svc::SvcChaos
mustParse(const std::string &spec)
{
    std::string error;
    auto chaos = svc::SvcChaos::tryParse(spec, &error);
    EXPECT_TRUE(chaos) << spec << ": " << error;
    return chaos ? *chaos : svc::SvcChaos{};
}

} // namespace

TEST(SvcChaos, ParsesFullGrammar)
{
    svc::SvcChaos c =
        mustParse("seed:9;stall:0.25:5;flip:0.5;satq:10:3");
    EXPECT_EQ(c.seed, 9u);
    EXPECT_DOUBLE_EQ(c.stallRate, 0.25);
    EXPECT_EQ(c.stallMillis, 5u);
    EXPECT_DOUBLE_EQ(c.flipRate, 0.5);
    ASSERT_EQ(c.saturations.size(), 1u);
    EXPECT_EQ(c.saturations[0].start, 10u);
    EXPECT_EQ(c.saturations[0].count, 3u);
    EXPECT_TRUE(c.any());

    svc::SvcChaos none = mustParse("");
    EXPECT_FALSE(none.any());
}

TEST(SvcChaos, SummaryRoundTrips)
{
    const char *specs[] = {
        "seed:9;stall:0.25:5;flip:0.5;satq:10:3",
        "seed:1",
        "stall:1:60000",
        "satq:0:1;satq:5:2",
    };
    for (const char *spec : specs) {
        svc::SvcChaos c = mustParse(spec);
        svc::SvcChaos again = mustParse(c.summary());
        EXPECT_EQ(again.summary(), c.summary()) << spec;
    }
}

TEST(SvcChaos, RejectsBadSpecsLoudly)
{
    const char *bad[] = {
        "bogus:1",            // unknown verb
        "stall:0.5",          // missing field
        "stall:0.5:5:9",      // extra field
        "stall:2:5",          // rate > 1
        "stall:0.5:99999999", // ms over cap
        "flip:-0.1",          // negative rate
        "satq:0:0",           // empty window
        "seed:1;seed:2",      // duplicate seed
        "stall:0.1:1;stall:0.2:2", // duplicate stall
        "a;",                 // trailing empty item
        ";",                  // empty item
        "seed:x",             // non-numeric
    };
    for (const char *spec : bad) {
        std::string error;
        EXPECT_FALSE(svc::SvcChaos::tryParse(spec, &error))
            << "accepted: " << spec;
        EXPECT_FALSE(error.empty()) << "no diagnostic for: " << spec;
    }
}

TEST(SvcChaos, NumberFormsAreStrictAndSummariesExact)
{
    EXPECT_EQ(mustParse("seed:18446744073709551615").seed,
              18446744073709551615ULL);
    EXPECT_EQ(mustParse("stall:.5:60000").stallRate, 0.5);
    EXPECT_EQ(mustParse("flip:1e-3").flipRate, 1e-3);
    // strtoull would wrap seed:-3 to 18446744073709551613.
    for (const char *spec : {"satq:-1:5", "seed:+3", "seed:-3",
                             "flip:nan", "stall:0x1:5", "satq:1:+2"}) {
        std::string error;
        EXPECT_FALSE(svc::SvcChaos::tryParse(spec, &error)) << spec;
        EXPECT_NE(error.find(spec), std::string::npos) << error;
    }
    // Seven significant digits must not print as six.
    for (const char *spec : {"seed:1;flip:0.1234567",
                             "seed:2;stall:0.30000000000000004:9"}) {
        svc::SvcChaos c = mustParse(spec);
        EXPECT_EQ(c.summary(), spec);
        EXPECT_EQ(mustParse(c.summary()).summary(), spec);
    }
}

TEST(SvcChaos, DecisionStreamsArePinned)
{
    // The decisions hash the seed, a tag and the arrival index or
    // cache key; pin a few so the hash cannot drift unnoticed.
    svc::SvcChaos c = mustParse("seed:7;stall:0.5:2;flip:0.5");
    std::string stalls;
    for (std::uint64_t i = 0; i < 16; ++i)
        stalls += c.stallFor(i) ? '1' : '0';
    EXPECT_EQ(stalls, "0100101100111000");
    EXPECT_EQ(c.flipBitFor("key0"), std::optional<std::uint32_t>(983587));
    EXPECT_EQ(c.flipBitFor("key1"), std::optional<std::uint32_t>(381958));
    EXPECT_EQ(c.flipBitFor("key3"), std::nullopt);
}

TEST(SvcChaos, DecisionsArePureFunctionsOfSeedAndId)
{
    svc::SvcChaos a = mustParse("seed:7;stall:0.5:2;flip:0.5");
    svc::SvcChaos b = mustParse("seed:7;stall:0.5:2;flip:0.5");
    // Identical specs agree decision-by-decision, and querying b in
    // reverse order first shows decisions carry no hidden state.
    std::vector<bool> reversed(200);
    for (std::uint64_t i = 0; i < 200; ++i)
        reversed[199 - i] = b.stallFor(199 - i);
    for (std::uint64_t i = 0; i < 200; ++i)
        EXPECT_EQ(a.stallFor(i), reversed[i]) << i;
    EXPECT_EQ(a.flipBitFor("some|key").has_value(),
              b.flipBitFor("some|key").has_value());
    if (a.flipBitFor("some|key")) {
        EXPECT_EQ(*a.flipBitFor("some|key"),
                  *b.flipBitFor("some|key"));
    }

    // A different seed makes different decisions somewhere.
    svc::SvcChaos other = mustParse("seed:8;stall:0.5:2;flip:0.5");
    bool differs = false;
    for (std::uint64_t i = 0; i < 200 && !differs; ++i)
        differs = a.stallFor(i) != other.stallFor(i);
    EXPECT_TRUE(differs);

    // Rates actually bite: ~50% of 200 indices stall.
    int stalls = 0;
    for (std::uint64_t i = 0; i < 200; ++i)
        stalls += a.stallFor(i) ? 1 : 0;
    EXPECT_GT(stalls, 50);
    EXPECT_LT(stalls, 150);
}

TEST(SvcChaos, SaturationWindowsAreExact)
{
    svc::SvcChaos c = mustParse("satq:4:2;satq:10:1");
    for (std::uint64_t i = 0; i < 16; ++i) {
        bool in = (i >= 4 && i < 6) || i == 10;
        EXPECT_EQ(c.saturatedAt(i), in) << i;
    }
    svc::SvcChaos none = mustParse("");
    EXPECT_FALSE(none.saturatedAt(0));
    EXPECT_FALSE(none.stallFor(0));
    EXPECT_FALSE(none.flipBitFor("k"));
}
