/**
 * @file
 * CRC32C (Castagnoli polynomial 0x1EDC6F41, reflected form
 * 0x82F63B78) over byte streams: slicing-by-8 with the tables
 * generated at compile time, or, on x86-64 hosts with SSE4.2, the
 * crc32 instruction, which computes the same function eight bytes at
 * a time. Used as the packet payload checksum of the reliable
 * transport and the plan cache's entry stamp: unlike a word sum, a
 * CRC detects reordered words and offsetting-pair corruptions, and
 * CRC32C specifically guarantees detection of any single burst error
 * up to 32 bits.
 */

#ifndef CT_UTIL_CRC32C_H
#define CT_UTIL_CRC32C_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace ct::util {

namespace detail {

using Crc32cTables = std::array<std::array<std::uint32_t, 256>, 8>;

/**
 * Table 0 is the classic byte-at-a-time table; table k maps a byte to
 * its CRC contribution after k further (zero) bytes, so eight lookups
 * fold a whole 8-byte block.
 */
constexpr Crc32cTables
makeCrc32cTables()
{
    Crc32cTables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t crc = i;
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
        t[0][i] = crc;
    }
    for (std::size_t k = 1; k < t.size(); ++k)
        for (std::uint32_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    return t;
}

inline constexpr Crc32cTables crc32cTables = makeCrc32cTables();

/** crc32cUpdate() through the tables, on any host. */
inline std::uint32_t
crc32cUpdateTables(std::uint32_t state, const void *data,
                   std::size_t byte_count)
{
    const Crc32cTables &t = crc32cTables;
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (; byte_count >= 8; bytes += 8, byte_count -= 8) {
        // Assembled little-endian byte by byte, so the result does not
        // depend on host byte order or alignment; the compiler merges
        // the unrolled shifts into one 64-bit load.
        std::uint64_t block =
            (static_cast<std::uint64_t>(bytes[0]) |
             static_cast<std::uint64_t>(bytes[1]) << 8 |
             static_cast<std::uint64_t>(bytes[2]) << 16 |
             static_cast<std::uint64_t>(bytes[3]) << 24 |
             static_cast<std::uint64_t>(bytes[4]) << 32 |
             static_cast<std::uint64_t>(bytes[5]) << 40 |
             static_cast<std::uint64_t>(bytes[6]) << 48 |
             static_cast<std::uint64_t>(bytes[7]) << 56) ^
            state;
        state = t[7][block & 0xFFu] ^ t[6][(block >> 8) & 0xFFu] ^
                t[5][(block >> 16) & 0xFFu] ^
                t[4][(block >> 24) & 0xFFu] ^
                t[3][(block >> 32) & 0xFFu] ^
                t[2][(block >> 40) & 0xFFu] ^
                t[1][(block >> 48) & 0xFFu] ^ t[0][block >> 56];
    }
    for (; byte_count > 0; ++bytes, --byte_count)
        state = (state >> 8) ^ t[0][(state ^ *bytes) & 0xFFu];
    return state;
}

#if defined(__x86_64__) && defined(__GNUC__)
#define CT_CRC32C_SSE42 1
/** crc32cUpdate() through SSE4.2's crc32 instruction; call only where
 *  the host has it. */
[[gnu::target("sse4.2")]] inline std::uint32_t
crc32cUpdateSse42(std::uint32_t state, const void *data,
                  std::size_t byte_count)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (; byte_count >= 8; bytes += 8, byte_count -= 8) {
        // x86 is little-endian: the block holds the bytes in order.
        std::uint64_t block;
        std::memcpy(&block, bytes, 8);
        state = static_cast<std::uint32_t>(
            __builtin_ia32_crc32di(state, block));
    }
    for (; byte_count > 0; ++bytes, --byte_count)
        state = __builtin_ia32_crc32qi(state, *bytes);
    return state;
}
#endif

} // namespace detail

/** Fold @p byte_count bytes of @p data into a running CRC state. */
inline std::uint32_t
crc32cUpdate(std::uint32_t state, const void *data,
             std::size_t byte_count)
{
#ifdef CT_CRC32C_SSE42
    // Also correct before static constructors have run.
    __builtin_cpu_init();
    if (__builtin_cpu_supports("sse4.2"))
        return detail::crc32cUpdateSse42(state, data, byte_count);
#endif
    return detail::crc32cUpdateTables(state, data, byte_count);
}

/** CRC32C of one buffer (init and final xor handled internally). */
inline std::uint32_t
crc32c(const void *data, std::size_t byte_count)
{
    return crc32cUpdate(0xFFFFFFFFu, data, byte_count) ^ 0xFFFFFFFFu;
}

} // namespace ct::util

#endif // CT_UTIL_CRC32C_H
