/**
 * @file
 * Two-dimensional array redistribution, including the transposing
 * assignment B[i][j] = A[j][i]. Flow construction splits each
 * (sender, receiver) element list into maximal affine runs (constant
 * source and destination deltas), which automatically recovers the
 * paper's Figure 9 decomposition: a (BLOCK, *) -> (*, BLOCK)
 * transpose falls apart into per-row flows that are contiguous on
 * one side and strided on the other, and the choice of which side
 * carries the stride is exactly Table 5's loop-order choice.
 */

#ifndef CT_RT_REDISTRIBUTE2D_H
#define CT_RT_REDISTRIBUTE2D_H

#include "core/distribution2d.h"
#include "rt/comm_op.h"

namespace ct::rt {

/**
 * Split the parallel offset lists into maximal runs with constant
 * (src delta, dst delta). Returns (start, length) pairs covering the
 * lists. Exposed for testing.
 */
std::vector<std::pair<std::size_t, std::size_t>>
splitAffineRuns(const std::vector<std::uint64_t> &src,
                const std::vector<std::uint64_t> &dst);

/** A distributed 2-D array pair and the redistribution between them. */
class Redistribution2dWorkload
{
  public:
    /**
     * Build B(to) = A(from), transposed when @p transpose is set.
     * Both distributions must span machine.nodeCount() nodes.
     */
    static Redistribution2dWorkload
    create(sim::Machine &machine, const core::Distribution2d &from,
           const core::Distribution2d &to, bool transpose);

    /** Fill A with A[i][j] = i * cols + j + 1. */
    void fillInput(sim::Machine &machine) const;

    /** Check every element of B; returns mismatches. */
    std::uint64_t verify(sim::Machine &machine) const;

    const CommOp &op() const { return commOp; }

    /** Patterns of the largest flow (the compiler's xQy view). */
    std::pair<core::AccessPattern, core::AccessPattern>
    dominantPatterns() const;

  private:
    core::Distribution2d fromDist{core::DimSpec::whole(1),
                                  core::DimSpec::whole(1)};
    core::Distribution2d toDist{core::DimSpec::whole(1),
                                core::DimSpec::whole(1)};
    bool transposed = false;
    std::vector<Addr> srcBase;
    std::vector<Addr> dstBase;
    CommOp commOp;
};

} // namespace ct::rt

#endif // CT_RT_REDISTRIBUTE2D_H
