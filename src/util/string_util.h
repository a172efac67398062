/**
 * @file
 * String helpers shared by every parser in the tree, including the
 * one number grammar: each spec, flag and request field reads its
 * numbers through parseCount or parseDecimal, and every rate a
 * summary prints goes through formatRate, so parse(summary()) is
 * exact.
 */

#ifndef CT_UTIL_STRING_UTIL_H
#define CT_UTIL_STRING_UTIL_H

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ct::util {

/** Strip ASCII whitespace from both ends. */
std::string_view trim(std::string_view s);

/** Split on a single character; keeps empty fields. */
std::vector<std::string> split(std::string_view s, char sep);

/** True if every character is an ASCII decimal digit (and non-empty). */
bool isAllDigits(std::string_view s);

/**
 * Strict decimal count in [min, max]: digits only, no sign, space,
 * prefix or suffix. Returns a diagnostic, empty on success; @p out
 * is written only on success.
 */
std::string parseCount(std::string_view text, std::uint64_t min,
                       std::uint64_t max, std::uint64_t &out);

/** parseCount into a narrower integer; @p max must fit in T. */
template <typename T>
std::string
parseCount(std::string_view text, std::uint64_t min,
           std::uint64_t max, T &out)
{
    std::uint64_t v = 0;
    std::string error = parseCount(text, min, max, v);
    if (error.empty())
        out = static_cast<T>(v);
    return error;
}

/**
 * Finite unsigned decimal in [min, max]: digits with an optional
 * fraction and exponent ("1e-3", ".5", "0.5", "1"); no sign, hex,
 * inf or nan. Returns a diagnostic, empty on success; @p out is
 * written only on success.
 */
std::string parseDecimal(std::string_view text, double min,
                         double max, double &out);

/**
 * The shortest %g rendering of @p v with at least six significant
 * digits that parseDecimal reads back as exactly @p v (six digits
 * is the iostream default, so short rates print as they always
 * have).
 */
std::string formatRate(double v);

} // namespace ct::util

#endif // CT_UTIL_STRING_UTIL_H
