/**
 * @file
 * The two hashes behind every seeded decision: mixSeed (splitmix64)
 * derives independent generator streams from one seed, and fnv1a
 * (64-bit FNV-1a) folds bytes and words into stable decision keys
 * and fingerprints.
 */

#ifndef CT_UTIL_HASH_H
#define CT_UTIL_HASH_H

#include <cstdint>
#include <string_view>

namespace ct::util {

/** The 64-bit FNV-1a offset basis. */
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

/**
 * splitmix64 output number @p stream for @p seed: decorrelated
 * stream seeds even for small consecutive seeds. Rng's state takes
 * streams 1-4, FaultInjector's fault classes 1-6 and the chaos
 * victim draw 101.
 */
constexpr std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t z = seed + stream * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** FNV-1a over @p bytes, continuing from @p state. */
constexpr std::uint64_t
fnv1a(std::string_view bytes, std::uint64_t state = kFnvOffset)
{
    for (char c : bytes) {
        state ^= static_cast<unsigned char>(c);
        state *= 0x100000001b3ULL;
    }
    return state;
}

/** FNV-1a over the eight bytes of @p v, least significant first. */
constexpr std::uint64_t
fnv1a(std::uint64_t v, std::uint64_t state)
{
    for (int i = 0; i < 8; ++i) {
        state ^= (v >> (8 * i)) & 0xffu;
        state *= 0x100000001b3ULL;
    }
    return state;
}

} // namespace ct::util

#endif // CT_UTIL_HASH_H
