#include <gtest/gtest.h>

#include "util/hash.h"
#include "util/rng.h"

namespace {

using namespace ct::util;

TEST(MixSeed, MatchesSplitmix64)
{
    // splitmix64 seeded with 0: its first two published outputs.
    EXPECT_EQ(mixSeed(0, 1), 0xe220a8397b1dcdafULL);
    EXPECT_EQ(mixSeed(0, 2), 0x6e789e6aa1b965f4ULL);
    // Stream k of seed s is output k of a generator seeded with s.
    EXPECT_EQ(mixSeed(7, 3), mixSeed(7 + 2 * 0x9e3779b97f4a7c15ULL, 1));
}

TEST(MixSeed, SeedsRngState)
{
    // Rng expands its seed with streams 1-4; pin its first draw so a
    // change to either side shows up here.
    Rng a(1), b(1), c(2);
    std::uint64_t first = a.next();
    EXPECT_EQ(first, b.next());
    EXPECT_NE(first, c.next());
    EXPECT_EQ(first, 0xb3f2af6d0fc710c5ULL);
}

TEST(Fnv1a, MatchesPublishedVectors)
{
    EXPECT_EQ(fnv1a(""), kFnvOffset);
    EXPECT_EQ(fnv1a("a"), 0xaf63dc4c8601ec8cULL);
    EXPECT_EQ(fnv1a("foobar"), 0x85944171f73967e8ULL);
}

TEST(Fnv1a, WordsFoldLeastSignificantByteFirst)
{
    std::uint64_t v = 0x0807060504030201ULL;
    EXPECT_EQ(fnv1a(v, kFnvOffset),
              fnv1a(std::string_view("\x01\x02\x03\x04\x05\x06\x07\x08",
                                     8)));
    // Continuation: folding "foo" then "bar" equals "foobar".
    EXPECT_EQ(fnv1a("bar", fnv1a("foo")), fnv1a("foobar"));
}

} // namespace
