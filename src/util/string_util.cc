#include "string_util.h"

#include <cctype>
#include <charconv>
#include <cstdio>

namespace ct::util {

std::string_view
trim(std::string_view s)
{
    while (!s.empty() &&
           std::isspace(static_cast<unsigned char>(s.front())))
        s.remove_prefix(1);
    while (!s.empty() &&
           std::isspace(static_cast<unsigned char>(s.back())))
        s.remove_suffix(1);
    return s;
}

std::vector<std::string>
split(std::string_view s, char sep)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= s.size(); ++i) {
        if (i == s.size() || s[i] == sep) {
            out.emplace_back(s.substr(start, i - start));
            start = i + 1;
        }
    }
    return out;
}

bool
isAllDigits(std::string_view s)
{
    if (s.empty())
        return false;
    for (char c : s)
        if (!std::isdigit(static_cast<unsigned char>(c)))
            return false;
    return true;
}

std::string
parseCount(std::string_view text, std::uint64_t min,
           std::uint64_t max, std::uint64_t &out)
{
    // Unsigned from_chars takes digits only: no sign, no space.
    std::uint64_t v = 0;
    const char *end = text.data() + text.size();
    auto [ptr, ec] = std::from_chars(text.data(), end, v);
    bool digits = ptr != text.data() && ptr == end;
    if (digits && ec == std::errc() && v >= min && v <= max) {
        out = v;
        return "";
    }
    return (digits ? "outside [" : "expected an integer in [") +
           std::to_string(min) + ", " + std::to_string(max) + "]";
}

std::string
parseDecimal(std::string_view text, double min, double max,
             double &out)
{
    // A leading digit or '.' keeps out the forms from_chars also
    // takes: a sign, "inf" and "nan". Hex needs chars_format::hex.
    double v = 0.0;
    const char *end = text.data() + text.size();
    bool decimal = !text.empty() &&
                   (std::isdigit(static_cast<unsigned char>(text[0])) ||
                    text[0] == '.');
    if (decimal) {
        auto [ptr, ec] = std::from_chars(text.data(), end, v);
        decimal = ec == std::errc() && ptr == end;
    }
    if (decimal && v >= min && v <= max) {
        out = v;
        return "";
    }
    return (decimal ? "outside [" : "expected a decimal in [") +
           formatRate(min) + ", " + formatRate(max) + "]";
}

std::string
formatRate(double v)
{
    char buf[32];
    for (int digits = 6;; ++digits) {
        int n = std::snprintf(buf, sizeof buf, "%.*g", digits, v);
        double back = 0.0;
        std::from_chars(buf, buf + n, back);
        if (back == v || digits == 17)
            return std::string(buf, static_cast<std::size_t>(n));
    }
}

} // namespace ct::util
