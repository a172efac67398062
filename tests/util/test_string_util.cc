#include <gtest/gtest.h>

#include <cstdint>

#include "util/string_util.h"

namespace {

using namespace ct::util;

TEST(Trim, StripsBothEnds)
{
    EXPECT_EQ(trim("  abc  "), "abc");
    EXPECT_EQ(trim("abc"), "abc");
    EXPECT_EQ(trim("\t a b \n"), "a b");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(trim(""), "");
}

TEST(Split, KeepsEmptyFields)
{
    auto v = split("a,b,,c", ',');
    ASSERT_EQ(v.size(), 4u);
    EXPECT_EQ(v[0], "a");
    EXPECT_EQ(v[2], "");
    EXPECT_EQ(v[3], "c");
}

TEST(Split, SingleField)
{
    auto v = split("abc", ',');
    ASSERT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0], "abc");
}

TEST(Split, TrailingSeparator)
{
    auto v = split("a,", ',');
    ASSERT_EQ(v.size(), 2u);
    EXPECT_EQ(v[1], "");
}

TEST(IsAllDigits, Basics)
{
    EXPECT_TRUE(isAllDigits("0123"));
    EXPECT_FALSE(isAllDigits(""));
    EXPECT_FALSE(isAllDigits("12a"));
    EXPECT_FALSE(isAllDigits("-1"));
}

TEST(ParseCount, AcceptsDigitsWithinTheRange)
{
    std::uint64_t v = 0;
    EXPECT_EQ(parseCount("0", 0, 10, v), "");
    EXPECT_EQ(v, 0u);
    EXPECT_EQ(parseCount("007", 0, 10, v), "");
    EXPECT_EQ(v, 7u);
    EXPECT_EQ(parseCount("18446744073709551615", 0, UINT64_MAX, v), "");
    EXPECT_EQ(v, UINT64_MAX);
    int narrow = 0;
    EXPECT_EQ(parseCount("2147483647", 0, INT32_MAX, narrow), "");
    EXPECT_EQ(narrow, INT32_MAX);
}

TEST(ParseCount, RejectsEveryOtherFormAndLeavesOutAlone)
{
    for (const char *text : {"", "+1", "-1", " 1", "1 ", "0x1", "1e2",
                             "1.0", "12abc", "nan"}) {
        std::uint64_t v = 42;
        EXPECT_EQ(parseCount(text, 0, UINT64_MAX, v),
                  "expected an integer in [0, 18446744073709551615]")
            << text;
        EXPECT_EQ(v, 42u) << text;
    }
    std::uint64_t v = 42;
    EXPECT_EQ(parseCount("18446744073709551616", 0, UINT64_MAX, v),
              "outside [0, 18446744073709551615]");
    EXPECT_EQ(parseCount("0", 1, 8, v), "outside [1, 8]");
    EXPECT_EQ(parseCount("9", 1, 8, v), "outside [1, 8]");
    EXPECT_EQ(v, 42u);
}

TEST(ParseDecimal, AcceptsUnsignedDecimalsWithExponents)
{
    const std::pair<const char *, double> ok[] = {
        {"1e-3", 1e-3}, {".5", 0.5},   {"0.5", 0.5},
        {"1", 1.0},     {"0", 0.0},    {"1E-2", 0.01},
        {"2.5e+0", 2.5}, {"0.30000000000000004", 0.30000000000000004},
    };
    for (const auto &[text, want] : ok) {
        double v = -1.0;
        EXPECT_EQ(parseDecimal(text, 0.0, 10.0, v), "") << text;
        EXPECT_EQ(v, want) << text;
    }
}

TEST(ParseDecimal, RejectsSignsHexInfNanAndJunk)
{
    for (const char *text :
         {"", "-0.5", "+0.5", "0x0.8", "nan", "inf", "infinity", "1e",
          ".", "e1", "0.5 ", " 0.5", "0.5x", "1e400", "1e-400"}) {
        double v = 7.0;
        EXPECT_EQ(parseDecimal(text, 0.0, 1.0, v),
                  "expected a decimal in [0, 1]")
            << text;
        EXPECT_EQ(v, 7.0) << text;
    }
    double v = 7.0;
    EXPECT_EQ(parseDecimal("1.5", 0.0, 1.0, v), "outside [0, 1]");
    EXPECT_EQ(v, 7.0);
}

TEST(FormatRate, KeepsSixDigitFormsAndRoundTripsTheRest)
{
    // The iostream default (%g, six digits) wherever that is exact.
    EXPECT_EQ(formatRate(0.01), "0.01");
    EXPECT_EQ(formatRate(1e-3), "0.001");
    EXPECT_EQ(formatRate(1e-5), "1e-05");
    EXPECT_EQ(formatRate(0.5), "0.5");
    EXPECT_EQ(formatRate(1.0), "1");
    // More digits only where six lose the value.
    EXPECT_EQ(formatRate(0.0012345678), "0.0012345678");
    EXPECT_EQ(formatRate(0.1234567), "0.1234567");
    EXPECT_EQ(formatRate(0.3000001), "0.3000001");
    EXPECT_EQ(formatRate(0.1 + 0.2), "0.30000000000000004");
    for (double v : {0.1 + 0.2, 1.0 / 3.0, 5e-324, 0.999999999999999,
                     0.123456789012345678}) {
        double back = -1.0;
        ASSERT_EQ(parseDecimal(formatRate(v), 0.0, 1.0, back), "") << v;
        EXPECT_EQ(back, v);
    }
}

} // namespace
