#include "pattern.h"

#include <ostream>

#include "util/logging.h"
#include "util/string_util.h"

namespace ct::core {

AccessPattern
AccessPattern::strided(std::uint32_t stride_words,
                       std::uint32_t block_words)
{
    if (stride_words == 0 || block_words == 0)
        util::fatal("AccessPattern::strided: zero stride or block");
    if (block_words > stride_words)
        util::fatal("AccessPattern::strided: block (", block_words,
                    ") larger than stride (", stride_words, ")");
    if (stride_words == block_words)
        return contiguous();
    return {PatternKind::Strided, stride_words, block_words};
}

std::optional<AccessPattern>
AccessPattern::parse(std::string_view text)
{
    auto s = util::trim(text);
    if (s == "w" || s == "omega" || s == "W")
        return indexed();

    // "stride.block" for block-strided patterns.
    std::uint32_t stride = 0, block = 0;
    if (auto dot = s.find('.'); dot != std::string_view::npos) {
        if (!util::parseCount(s.substr(0, dot), 1, UINT32_MAX, stride)
                 .empty() ||
            !util::parseCount(s.substr(dot + 1), 1, stride, block)
                 .empty())
            return std::nullopt;
        return strided(stride, block);
    }

    if (!util::parseCount(s, 0, UINT32_MAX, stride).empty())
        return std::nullopt;
    if (stride == 0)
        return fixed();
    return strided(stride);
}

std::string
AccessPattern::label() const
{
    switch (kindValue) {
      case PatternKind::Fixed:
        return "0";
      case PatternKind::Contiguous:
        return "1";
      case PatternKind::Strided:
        if (blockWords > 1)
            return std::to_string(strideWords) + "." +
                   std::to_string(blockWords);
        return std::to_string(strideWords);
      case PatternKind::Indexed:
        return "w";
    }
    util::panic("AccessPattern::label: bad kind");
}

void
PrintTo(const AccessPattern &p, std::ostream *os)
{
    *os << p.label();
}

} // namespace ct::core
