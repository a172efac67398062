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

/**
 * Streaming address generator over a walk: O(1) state, no divisions
 * in steady state, and no materialized address arrays. Produces the
 * exact sequence `walk.elementAddr(ram, first)`,
 * `walk.elementAddr(ram, first + 1)`, ... so kernels iterating a walk
 * element-by-element can stream instead of recomputing (or caching)
 * per-element addresses.
 *
 * For indexed walks each elementAddr() call reads the index array,
 * mirroring the one architectural index load per element.
 * elementAddr() and advance() run per simulated word and are defined
 * inline below.
 */
class WalkCursor
{
  public:
    WalkCursor(const PatternWalk &walk, std::uint64_t first);

    /** Word address of the current element. */
    Addr elementAddr(const NodeRam &ram) const;

    /** Address of the current element's index entry. */
    Addr indexAddr() const { return walkRef->indexAddr(current); }

    /** Element number the cursor stands on. */
    std::uint64_t index() const { return current; }

    /** Step to the next element. */
    void advance();

  private:
    const PatternWalk *walkRef;
    std::uint64_t current;
    /** Precomputed address (contiguous / strided walks). */
    Addr addr = 0;
    /** Elements left in the current strided block (incl. current). */
    std::uint64_t blockLeft = 0;
};

inline Addr
WalkCursor::elementAddr(const NodeRam &ram) const
{
    if (walkRef->pattern.isIndexed())
        return walkRef->base +
               ram.readWord(walkRef->indexAddr(current)) *
                   util::wordBytes;
    return addr;
}

inline void
WalkCursor::advance()
{
    using core::PatternKind;
    ++current;
    switch (walkRef->pattern.kind()) {
      case PatternKind::Contiguous:
        addr += util::wordBytes;
        break;
      case PatternKind::Strided:
        if (--blockLeft == 0) {
            // Jump from the last element of a block to the first of
            // the next: stride words forward from the block start,
            // i.e. back over the block-1 words already walked. Two
            // 64-bit steps so an overlapping stride < block cannot
            // underflow in 32 bits.
            addr -= static_cast<Addr>(walkRef->pattern.block() - 1) *
                    util::wordBytes;
            addr += static_cast<Addr>(walkRef->pattern.stride()) *
                    util::wordBytes;
            blockLeft = walkRef->pattern.block();
        } else {
            addr += util::wordBytes;
        }
        break;
      case PatternKind::Indexed:
      case PatternKind::Fixed:
        break;
    }
}

} // namespace ct::sim

#endif // CT_SIM_WALK_H
