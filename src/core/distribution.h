/**
 * @file
 * HPF-style array distributions (paper §2.1). A parallelizing
 * compiler maps an array over the nodes with a BLOCK, CYCLIC or
 * BLOCK-CYCLIC(k) distribution; array assignments between arrays
 * with different distributions become the communication operations
 * xQy this library models. This module provides the ownership
 * arithmetic and derives the memory access pattern each
 * redistribution induces.
 */

#ifndef CT_CORE_DISTRIBUTION_H
#define CT_CORE_DISTRIBUTION_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/pattern.h"

namespace ct::core {

/** The standard-HPF distribution formats (§2.1). */
enum class DistKind {
    Block,       ///< contiguous chunks of ceil(n/p) elements
    Cyclic,      ///< element i lives on node i mod p
    BlockCyclic, ///< blocks of k elements dealt round-robin
};

/**
 * One dimension's distribution over @p nodes() nodes of an array of
 * @p elements() elements. Immutable value type.
 */
class Distribution
{
  public:
    /** BLOCK distribution of @p n elements over @p p nodes. */
    static Distribution block(std::uint64_t n, int p);

    /** CYCLIC distribution. */
    static Distribution cyclic(std::uint64_t n, int p);

    /** BLOCK-CYCLIC(k) distribution. */
    static Distribution blockCyclic(std::uint64_t n, int p,
                                    std::uint64_t k);

    DistKind kind() const { return kindValue; }
    std::uint64_t elements() const { return n; }
    int nodes() const { return p; }

    /** Block size: n/p-ish for Block, 1 for Cyclic, k otherwise. */
    std::uint64_t blockSize() const { return k; }

    /** The node owning global element @p i. */
    int ownerOf(std::uint64_t i) const;

    /** Position of global element @p i within its owner's storage. */
    std::uint64_t localIndexOf(std::uint64_t i) const;

    /** Number of elements stored on @p node. */
    std::uint64_t localCount(int node) const;

    /** Global index of @p node's local element @p li. */
    std::uint64_t globalIndexOf(int node, std::uint64_t li) const;

    /** "BLOCK", "CYCLIC" or "BLOCK-CYCLIC(k)". */
    std::string name() const;

    bool operator==(const Distribution &other) const = default;

  private:
    Distribution(DistKind kind, std::uint64_t n, int p,
                 std::uint64_t k);

    DistKind kindValue = DistKind::Block;
    std::uint64_t n = 0;
    int p = 1;
    std::uint64_t k = 1; ///< block size
};

/** Writes name() and the size, e.g. "BLOCK-CYCLIC(4) n=64 p=4"; gtest
 *  prints distribution parameters with it. */
void PrintTo(const Distribution &d, std::ostream *os);

/**
 * Classify a sorted list of local word indices into the access
 * pattern a compiler-generated loop over them would show: contiguous,
 * (block-)strided, or indexed. This is how the redistribution layer
 * recognizes that e.g. BLOCK -> CYCLIC sends with a constant stride.
 */
AccessPattern classifyIndices(const std::vector<std::uint64_t> &indices);

/**
 * The element traffic of a redistribution A(to) = B(from): for the
 * (sender, receiver) pair, the global indices that move, in receiver
 * storage order.
 */
std::vector<std::uint64_t>
redistributionIndices(const Distribution &from, const Distribution &to,
                      int sender, int receiver);

} // namespace ct::core

#endif // CT_CORE_DISTRIBUTION_H
