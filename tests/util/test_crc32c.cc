#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "util/crc32c.h"
#include "util/rng.h"

namespace {

using ct::util::crc32c;
using ct::util::crc32cUpdate;

/** The byte-at-a-time table loop, built here so no library table is
 *  shared with the code under test. */
std::uint32_t
referenceUpdate(std::uint32_t state, const unsigned char *bytes,
                std::size_t byte_count)
{
    static const std::array<std::uint32_t, 256> table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t crc = i;
            for (int bit = 0; bit < 8; ++bit)
                crc = (crc >> 1) ^ ((crc & 1u) ? 0x82F63B78u : 0u);
            t[i] = crc;
        }
        return t;
    }();
    for (std::size_t i = 0; i < byte_count; ++i)
        state = (state >> 8) ^ table[(state ^ bytes[i]) & 0xFFu];
    return state;
}

std::vector<unsigned char>
randomBytes(std::size_t count, std::uint64_t seed)
{
    ct::util::Rng rng(seed);
    std::vector<unsigned char> bytes(count);
    for (unsigned char &b : bytes)
        b = static_cast<unsigned char>(rng.next());
    return bytes;
}

TEST(Crc32c, CheckString)
{
    const std::string check = "123456789";
    EXPECT_EQ(crc32c(check.data(), check.size()), 0xE3069283u);
}

TEST(Crc32c, Rfc3720Vectors)
{
    // RFC 3720 appendix B.4.
    std::array<unsigned char, 32> buf{};
    EXPECT_EQ(crc32c(buf.data(), buf.size()), 0x8A9136AAu);
    buf.fill(0xFF);
    EXPECT_EQ(crc32c(buf.data(), buf.size()), 0x62A8AB43u);
    for (std::size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<unsigned char>(i);
    EXPECT_EQ(crc32c(buf.data(), buf.size()), 0x46DD794Eu);
    for (std::size_t i = 0; i < buf.size(); ++i)
        buf[i] = static_cast<unsigned char>(31 - i);
    EXPECT_EQ(crc32c(buf.data(), buf.size()), 0x113FDB5Cu);
}

TEST(Crc32c, EmptyInputLeavesStateUnchanged)
{
    EXPECT_EQ(crc32cUpdate(0x12345678u, nullptr, 0), 0x12345678u);
    EXPECT_EQ(crc32c(nullptr, 0), 0u);
}

TEST(Crc32c, MatchesReferenceAtEveryLengthAndOffset)
{
    // Every block/tail split at every alignment of the start byte.
    const std::vector<unsigned char> buf = randomBytes(300 + 8, 17);
    for (std::uint32_t init : {0xFFFFFFFFu, 0x0u, 0x9E3779B9u}) {
        for (std::size_t offset = 0; offset < 8; ++offset) {
            for (std::size_t len = 0; len <= 300; ++len) {
                const unsigned char *start = buf.data() + offset;
                ASSERT_EQ(crc32cUpdate(init, start, len),
                          referenceUpdate(init, start, len))
                    << "init " << init << " offset " << offset
                    << " length " << len;
            }
        }
    }
}

TEST(Crc32c, EveryImplementationMatchesReference)
{
    // crc32cUpdate() takes one implementation per host; check the
    // table path everywhere, and the instruction path where it runs.
    const std::vector<unsigned char> buf = randomBytes(300 + 8, 23);
    for (std::size_t offset = 0; offset < 8; ++offset) {
        for (std::size_t len = 0; len <= 300; ++len) {
            const unsigned char *start = buf.data() + offset;
            const std::uint32_t want =
                referenceUpdate(0xFFFFFFFFu, start, len);
            ASSERT_EQ(ct::util::detail::crc32cUpdateTables(0xFFFFFFFFu,
                                                           start, len),
                      want)
                << "offset " << offset << " length " << len;
#ifdef CT_CRC32C_SSE42
            if (__builtin_cpu_supports("sse4.2")) {
                ASSERT_EQ(ct::util::detail::crc32cUpdateSse42(
                              0xFFFFFFFFu, start, len),
                          want)
                    << "offset " << offset << " length " << len;
            }
#endif
        }
    }
}

TEST(Crc32c, ChainedUpdatesMatchOneShot)
{
    // payloadSum() chains words then addresses and PlanCache::stamp
    // chains key then payload: any split must give the same CRC.
    const std::vector<unsigned char> buf = randomBytes(300, 29);
    const std::uint32_t whole =
        referenceUpdate(0xFFFFFFFFu, buf.data(), buf.size());
    for (std::size_t split = 0; split <= buf.size(); ++split) {
        std::uint32_t state =
            crc32cUpdate(0xFFFFFFFFu, buf.data(), split);
        state = crc32cUpdate(state, buf.data() + split,
                             buf.size() - split);
        ASSERT_EQ(state, whole) << "split at " << split;
    }
}

} // namespace
