/**
 * @file
 * Distributed array transpose, the communication kernel of the 2-D
 * FFT (paper §6.1.1 and Figure 9). An n x n word matrix is
 * distributed by row blocks; the transpose moves square patches
 * between every pair of nodes. The compiler's loop-order choice
 * turns the transfer into either
 *
 *  - strided stores (1Qn): contiguous source rows scattered into
 *    remote columns, or
 *  - strided loads (nQ1): source columns gathered into contiguous
 *    remote rows.
 */

#ifndef CT_APPS_TRANSPOSE_H
#define CT_APPS_TRANSPOSE_H

#include <iosfwd>

#include "rt/comm_op.h"

namespace ct::apps {

using rt::CommOp;
using sim::Addr;
using sim::Machine;
using sim::NodeId;

/** Loop-order variants of the transpose (Figure 9 a / b). */
enum class TransposeVariant {
    StridedStores, ///< 1Qn: read rows contiguously, store columns
    StridedLoads,  ///< nQ1: read columns strided, store rows
};

/** Writes the variant's name; gtest prints variant parameters with
 *  it. */
void PrintTo(TransposeVariant variant, std::ostream *os);

/** Parameters of the transpose workload. */
struct TransposeConfig
{
    std::uint64_t n = 512; ///< matrix dimension (words)
    TransposeVariant variant = TransposeVariant::StridedStores;
    /** Also create the (local) diagonal-block flows. */
    bool includeLocalFlows = false;
};

/**
 * A distributed matrix pair (A and its transpose target B) plus the
 * communication operation that performs B = A^T.
 */
class TransposeWorkload
{
  public:
    /** Allocate A and B on every node and build the flow set. */
    static TransposeWorkload create(Machine &machine,
                                    const TransposeConfig &config);

    /** Fill A with a[j][i] = j * n + i + 1. */
    void fillInput(Machine &machine) const;

    /** Check b[i][j] == a[j][i] for every element. */
    std::uint64_t verify(Machine &machine) const;

    const CommOp &op() const { return commOp; }
    std::uint64_t n() const { return dim; }
    std::uint64_t rowsPerNode() const { return rowsPer; }

    /** Address of a[row][col] (the node owning @p row is implied). */
    Addr aAddr(std::uint64_t row, std::uint64_t col) const;
    /** Address of b[row][col]. */
    Addr bAddr(std::uint64_t row, std::uint64_t col) const;
    /** Node owning global row @p row. */
    NodeId ownerOf(std::uint64_t row) const;

  private:
    std::uint64_t dim = 0;
    std::uint64_t rowsPer = 0;
    std::vector<Addr> aBase;
    std::vector<Addr> bBase;
    CommOp commOp;
};

} // namespace ct::apps

#endif // CT_APPS_TRANSPOSE_H
