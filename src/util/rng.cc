#include "rng.h"

#include <numeric>

#include "hash.h"
#include "logging.h"

namespace ct::util {

namespace {

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    // splitmix64 expands the seed into the generator state.
    for (std::uint64_t i = 0; i < 4; ++i)
        state[i] = mixSeed(seed, i + 1);
}

std::uint64_t
Rng::next()
{
    std::uint64_t result = rotl(state[1] * 5, 7) * 9;
    std::uint64_t t = state[1] << 17;
    state[2] ^= state[0];
    state[3] ^= state[1];
    state[1] ^= state[2];
    state[0] ^= state[3];
    state[2] ^= t;
    state[3] = rotl(state[3], 45);
    return result;
}

std::uint64_t
Rng::nextBelow(std::uint64_t bound)
{
    if (bound == 0)
        fatal("Rng::nextBelow: zero bound");
    // Rejection sampling to avoid modulo bias.
    std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
        std::uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

std::int64_t
Rng::nextInRange(std::int64_t lo, std::int64_t hi)
{
    if (lo > hi)
        fatal("Rng::nextInRange: empty range");
    std::uint64_t span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(nextBelow(span));
}

double
Rng::nextDouble()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::vector<std::uint64_t>
Rng::permutation(std::uint64_t n)
{
    std::vector<std::uint64_t> perm(n);
    std::iota(perm.begin(), perm.end(), 0);
    shuffle(perm);
    return perm;
}

} // namespace ct::util
