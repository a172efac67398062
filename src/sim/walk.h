/**
 * @file
 * Pattern walkers: map the copy-transfer model's access patterns
 * (contiguous / strided / indexed) onto concrete word addresses in a
 * node's memory. For indexed walks, the index array itself lives in
 * node memory and reading it costs time but no payload bandwidth,
 * matching the paper's accounting (§2.2).
 */

#ifndef CT_SIM_WALK_H
#define CT_SIM_WALK_H

#include "core/pattern.h"
#include "sim/node_ram.h"

namespace ct::sim {

/** Description of one side of a transfer in node memory. */
struct PatternWalk
{
    Addr base = 0;
    core::AccessPattern pattern;
    /** Word array of element indices; used by indexed patterns. */
    Addr indexBase = 0;

    /** Word address of element @p i (reads the index array if
     *  needed). */
    Addr elementAddr(const NodeRam &ram, std::uint64_t i) const;

    /** Address of the i-th index entry (for timing the index load). */
    Addr
    indexAddr(std::uint64_t i) const
    {
        return indexBase + i * util::wordBytes;
    }

    /** True when each element requires an index-array load. */
    bool needsIndexLoad() const { return pattern.isIndexed(); }
};

/** Convenience constructors. */
PatternWalk contiguousWalk(Addr base);
PatternWalk stridedWalk(Addr base, std::uint32_t stride_words,
                        std::uint32_t block_words = 1);
PatternWalk indexedWalk(Addr base, Addr index_base);

/** Fatal error for a walk over the fixed pattern `0`, which has no
 *  elements to step through. */
[[noreturn]] void fixedWalkFatal();

// Typed streaming cursors: O(1) state, no divisions in steady state
// and no materialized address arrays. Each walks one pattern kind and
// produces the exact sequence `walk.elementAddr(ram, first)`,
// `walk.elementAddr(ram, first + 1)`, ..., so a loop instantiated for
// a cursor type has no per-element dispatch; withCursor() picks the
// type once per call. An indexed cursor reads the index array on each
// elementAddr() call, mirroring the one architectural index load per
// element; `indexed` lets kernels charge that load at compile time.

/** Cursor over a contiguous walk. */
class ContiguousCursor
{
  public:
    static constexpr bool indexed = false;

    ContiguousCursor(const PatternWalk &walk, std::uint64_t first)
        : addr(walk.base + first * util::wordBytes)
    {
    }

    Addr elementAddr(const NodeRam &) const { return addr; }
    void advance() { addr += util::wordBytes; }

  private:
    Addr addr;
};

/** Cursor over a strided walk of blocks of consecutive words. */
class StridedCursor
{
  public:
    static constexpr bool indexed = false;

    StridedCursor(const PatternWalk &walk, std::uint64_t first)
        : block(walk.pattern.block()),
          // From the last word of a block to the first of the next:
          // stride words on from the block's start, which lies
          // block - 1 words back.
          blockJump(static_cast<Addr>(walk.pattern.stride()) *
                        util::wordBytes -
                    static_cast<Addr>(block - 1) * util::wordBytes)
    {
        // One div/mod to seed the cursor; advance() is add-only.
        addr = walk.base +
               (first / block) * walk.pattern.stride() * util::wordBytes +
               (first % block) * util::wordBytes;
        blockLeft = block - first % block;
    }

    Addr elementAddr(const NodeRam &) const { return addr; }

    void
    advance()
    {
        if (--blockLeft == 0) {
            addr += blockJump;
            blockLeft = block;
        } else {
            addr += util::wordBytes;
        }
    }

  private:
    std::uint64_t block;
    Addr blockJump;
    Addr addr = 0;
    /** Elements left in the current block (incl. the current one). */
    std::uint64_t blockLeft = 0;
};

/** Cursor over an indexed walk. */
class IndexedCursor
{
  public:
    static constexpr bool indexed = true;

    IndexedCursor(const PatternWalk &walk, std::uint64_t first)
        : base(walk.base), index(walk.indexAddr(first))
    {
    }

    /** Address of the current element's index entry. */
    Addr indexAddr() const { return index; }

    Addr
    elementAddr(const NodeRam &ram) const
    {
        return base + ram.readWord(index) * util::wordBytes;
    }

    void advance() { index += util::wordBytes; }

  private:
    Addr base;
    Addr index;
};

/**
 * Call @p fn with the typed cursor that walks @p walk from element
 * @p first, and return what it returns: the pattern kind is switched
 * on once per walk, not per element. Fatal for the fixed pattern.
 */
template <typename Fn>
decltype(auto)
withCursor(const PatternWalk &walk, std::uint64_t first, Fn &&fn)
{
    switch (walk.pattern.kind()) {
      case core::PatternKind::Contiguous:
        return fn(ContiguousCursor(walk, first));
      case core::PatternKind::Strided:
        return fn(StridedCursor(walk, first));
      case core::PatternKind::Indexed:
        return fn(IndexedCursor(walk, first));
      case core::PatternKind::Fixed:
        break;
    }
    fixedWalkFatal();
}

} // namespace ct::sim

#endif // CT_SIM_WALK_H
