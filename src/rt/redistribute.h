/**
 * @file
 * Array redistribution (paper §2.1): executing A(to) = B(from) where
 * the two sides have different HPF distributions. The workload
 * builder derives, for every (sender, receiver) pair, the induced
 * access patterns -- BLOCK -> CYCLIC sends contiguous runs into
 * strided remote locations, CYCLIC -> BLOCK gathers strided, and so
 * on -- and assembles the CommOp the runtime layers execute.
 */

#ifndef CT_RT_REDISTRIBUTE_H
#define CT_RT_REDISTRIBUTE_H

#include "core/distribution.h"
#include "rt/comm_op.h"

namespace ct::rt {

/** A distributed array pair plus the redistribution between them. */
class RedistributionWorkload
{
  public:
    /**
     * Allocate the source array (distributed per @p from) and the
     * destination array (per @p to) on @p machine's nodes and build
     * the flow set. Both distributions must span machine.nodeCount()
     * nodes and the same element count.
     */
    static RedistributionWorkload create(sim::Machine &machine,
                                         const core::Distribution &from,
                                         const core::Distribution &to);

    /** Fill the source with src[g] = g + 1 (global index). */
    void fillInput(sim::Machine &machine) const;

    /** Check dst[g] == g + 1 for every element; returns mismatches. */
    std::uint64_t verify(sim::Machine &machine) const;

    const CommOp &op() const { return commOp; }

    /**
     * The access-pattern pair (x, y) of the largest flow -- what a
     * compiler would see as the dominant xQy of this redistribution.
     */
    std::pair<core::AccessPattern, core::AccessPattern>
    dominantPatterns() const;

  private:
    core::Distribution fromDist = core::Distribution::block(1, 1);
    core::Distribution toDist = core::Distribution::block(1, 1);
    std::vector<Addr> srcBase;
    std::vector<Addr> dstBase;
    CommOp commOp;
};

} // namespace ct::rt

#endif // CT_RT_REDISTRIBUTE_H
