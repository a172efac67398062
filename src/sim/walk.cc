#include "walk.h"

#include "util/logging.h"

namespace ct::sim {

Addr
PatternWalk::elementAddr(const NodeRam &ram, std::uint64_t i) const
{
    using core::PatternKind;
    switch (pattern.kind()) {
      case PatternKind::Contiguous:
        return base + i * util::wordBytes;
      case PatternKind::Strided: {
        std::uint64_t b = pattern.block();
        return base + (i / b) * pattern.stride() * util::wordBytes +
               (i % b) * util::wordBytes;
      }
      case PatternKind::Indexed: {
        std::uint64_t idx = ram.readWord(indexAddr(i));
        return base + idx * util::wordBytes;
      }
      case PatternKind::Fixed:
        break;
    }
    util::fatal("PatternWalk: fixed pattern has no element address");
}

WalkCursor::WalkCursor(const PatternWalk &walk, std::uint64_t first)
    : walkRef(&walk), current(first)
{
    using core::PatternKind;
    switch (walk.pattern.kind()) {
      case PatternKind::Contiguous:
        addr = walk.base + first * util::wordBytes;
        break;
      case PatternKind::Strided: {
        // One div/mod to seed the cursor; advance() is add-only.
        std::uint64_t b = walk.pattern.block();
        addr = walk.base +
               (first / b) * walk.pattern.stride() * util::wordBytes +
               (first % b) * util::wordBytes;
        blockLeft = b - first % b;
        break;
      }
      case PatternKind::Indexed:
        break;
      case PatternKind::Fixed:
        util::fatal("WalkCursor: fixed pattern has no elements");
    }
}

PatternWalk
contiguousWalk(Addr base)
{
    return {base, core::AccessPattern::contiguous(), 0};
}

PatternWalk
stridedWalk(Addr base, std::uint32_t stride_words,
            std::uint32_t block_words)
{
    return {base,
            core::AccessPattern::strided(stride_words, block_words),
            0};
}

PatternWalk
indexedWalk(Addr base, Addr index_base)
{
    return {base, core::AccessPattern::indexed(), index_base};
}

} // namespace ct::sim
