/**
 * @file
 * Memory access patterns of the copy-transfer model (paper §2.2, §3.2).
 *
 * A pattern describes how one side of a basic transfer touches memory:
 *
 *  - `0`        a fixed location (head or tail of a network FIFO),
 *  - `1`        contiguous words,
 *  - `n >= 2`   constant stride of n words; the stride may move whole
 *               blocks of words ("2 words for complex numbers, 6 words
 *               for 3D tensors", §2.2), written `n.b`,
 *  - `w` (omega) indexed: an arbitrary sequence given by an index array.
 */

#ifndef CT_CORE_PATTERN_H
#define CT_CORE_PATTERN_H

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>

namespace ct::core {

/** The four pattern classes distinguished by the model. */
enum class PatternKind {
    Fixed,      ///< pattern `0`: a FIFO port, not a memory walk
    Contiguous, ///< pattern `1`
    Strided,    ///< pattern `n`, constant stride n >= 2 (in words)
    Indexed,    ///< pattern `w`: arbitrary, driven by an index array
};

/**
 * Value type describing one side's access pattern.
 *
 * Strides are measured in 64-bit words, matching the paper's basic
 * unit of transfer. Strided patterns may move blocks of consecutive
 * words: block(i) starts at element i * stride and covers blockWords
 * words. The stride counts from block start to block start and must
 * be at least the block size.
 */
class AccessPattern
{
  public:
    /** Default-constructs the contiguous pattern. */
    AccessPattern() = default;

    /** The fixed pattern `0`. */
    static constexpr AccessPattern fixed()
    {
        return {PatternKind::Fixed, 0, 0};
    }

    /** The contiguous pattern `1`. */
    static constexpr AccessPattern contiguous()
    {
        return {PatternKind::Contiguous, 1, 1};
    }

    /**
     * A constant-stride pattern moving blocks of @p block_words
     * consecutive words. A stride equal to the block size
     * degenerates to the contiguous pattern; strides must be
     * positive and at least the block size.
     */
    static AccessPattern strided(std::uint32_t stride_words,
                                 std::uint32_t block_words = 1);

    /** The indexed pattern `w`. */
    static constexpr AccessPattern indexed()
    {
        return {PatternKind::Indexed, 0, 0};
    }

    /**
     * Parse a pattern label: "0", "1", "w" (or "omega"), a decimal
     * stride, or "stride.block" for block-strided patterns. Returns
     * nullopt on malformed input.
     */
    static std::optional<AccessPattern> parse(std::string_view text);

    PatternKind kind() const { return kindValue; }

    /** Stride in words; 1 for contiguous, 0 for fixed/indexed. */
    std::uint32_t stride() const { return strideWords; }

    /** Words per block; 1 unless block-strided. */
    std::uint32_t block() const { return blockWords; }

    bool isFixed() const { return kindValue == PatternKind::Fixed; }
    bool isContiguous() const
    {
        return kindValue == PatternKind::Contiguous;
    }
    bool isStrided() const { return kindValue == PatternKind::Strided; }
    bool isIndexed() const { return kindValue == PatternKind::Indexed; }

    /** True for patterns that walk memory (everything but `0`). */
    bool touchesMemory() const { return !isFixed(); }

    /** Short label as used in formulas: "0", "1", "16", "16.2", "w". */
    std::string label() const;

    bool operator==(const AccessPattern &other) const = default;

  private:
    constexpr AccessPattern(PatternKind kind, std::uint32_t stride,
                            std::uint32_t block)
        : kindValue(kind), strideWords(stride), blockWords(block)
    {}

    PatternKind kindValue = PatternKind::Contiguous;
    std::uint32_t strideWords = 1;
    std::uint32_t blockWords = 1;
};

/** Writes label(); gtest prints pattern parameters with it, so the
 *  names of parameterized tests are readable and stable. */
void PrintTo(const AccessPattern &p, std::ostream *os);

/** Orders patterns for use as map keys: by kind, stride, block. */
struct PatternLess
{
    bool operator()(const AccessPattern &a, const AccessPattern &b) const
    {
        if (a.kind() != b.kind())
            return a.kind() < b.kind();
        if (a.stride() != b.stride())
            return a.stride() < b.stride();
        return a.block() < b.block();
    }
};

} // namespace ct::core

#endif // CT_CORE_PATTERN_H
